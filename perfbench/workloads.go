package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// workload is one named traffic mix. BENCHMARK.json records why each
// exists; perfbench/layers.json records the layers each one stresses
// and bypasses.
type workload struct {
	stores    int
	ids       uint64 // size of the id space the truth bitsets cover
	frames    bool   // binary KNWF bodies (else newline text)
	nodes     int    // serving knwd processes
	standby   bool   // a 4th node that joins and leaves after the phase
	batchKeys int
	src       func() idSource
	// pick chooses the store of stream c's j-th batch.
	pick func(s *stream, c, j int) int
	// preload is the fixed set-up ingest: batches per store, sent to
	// every store before timing starts.
	preload int
	// idleRounds is how many times the idle probe reads every store.
	idleRounds int
	phase      func(r *run, end time.Time) []*phaseStats
	gate       func(r *run) error
}

var workloads = map[string]*workload{
	"ingest": {
		stores: 4, ids: 1 << 22, frames: true, nodes: 1, batchKeys: 8000,
		src:     func() idSource { return &zipfIDs{s: 1.1, n: 1 << 22} },
		pick:    func(_ *stream, c, j int) int { return (2*j + c) % 4 },
		preload: 16, idleRounds: 5, phase: ingestPhase, gate: singleNodeGate,
	},
	"tenants": {
		stores: 16, ids: 17 * tenantStep, nodes: 1, batchKeys: 1000,
		src:     func() idSource { return windowIDs{step: tenantStep, width: 2 * tenantStep} },
		pick:    func(s *stream, _, _ int) int { return s.rng.IntN(16) },
		preload: 20, idleRounds: 2, phase: tenantsPhase, gate: singleNodeGate,
	},
	"cluster": {
		stores: 3, ids: 1 << 22, frames: true, nodes: 3, standby: true, batchKeys: 500,
		src:     func() idSource { return &zipfIDs{s: 1.1, n: 1 << 22} },
		pick:    func(_ *stream, _, j int) int { return j % 3 },
		preload: 8, idleRounds: 2, phase: clusterPhase, gate: clusterGate,
	},
}

const (
	tenantStep = 20_000 // tenants: store i draws ids from [i·step, i·step+2·step)
	tenantRate = 70     // tenants: open-loop write requests per second
	// maxEndLag marks an open-loop run invalid: a generator still this
	// far behind its schedule when the phase ends had a growing backlog.
	maxEndLag = time.Second
	readMix   = 5 // closed-loop readers: 4 single-store reads, then 1 heavier read
)

// phaseStats is one client stream's share of the timed phase.
type phaseStats struct {
	ingest, estimate, query, gather, lag samples
	keys, bytes                          int64
	endLag                               time.Duration
}

// op runs one attempted operation, counting its failure.
func (r *run) op(dst *samples, fn func() (time.Duration, error)) bool {
	r.attempted.Add(1)
	d, err := fn()
	if err != nil {
		r.fail(err)
		return false
	}
	*dst = append(*dst, ms(d))
	return true
}

// parallel runs fn once per stream and returns each stream's stats.
func parallel(streams int, fn func(i int, ps *phaseStats)) []*phaseStats {
	out := make([]*phaseStats, streams)
	var wg sync.WaitGroup
	for i := range streams {
		out[i] = &phaseStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, out[i])
		}()
	}
	wg.Wait()
	return out
}

// closedIngest sends stream c's batches back to back until end; url
// gives the request URL prefix of request j.
func (r *run) closedIngest(ps *phaseStats, c int, end time.Time, url func(j int) string) {
	s := r.stream(uint64(c))
	for j := 0; time.Now().Before(end); j++ {
		b := s.next(r.w.pick(s, c, j), r.w.batchKeys)
		if r.op(&ps.ingest, func() (time.Duration, error) { return r.ingest(url(j), b) }) {
			ps.keys += int64(len(b.ids))
			ps.bytes += int64(len(b.body))
		}
	}
}

// ingest: two closed-loop clients post 8000-key frames to one node,
// rotating over the four stores.
func ingestPhase(r *run, end time.Time) []*phaseStats {
	return parallel(2, func(c int, ps *phaseStats) {
		r.closedIngest(ps, c, end, func(int) string { return r.nodes[0].url + "/v1/ingest?store=" })
	})
}

// tenants: an open-loop writer at tenantRate requests/s beside a
// closed-loop reader mixing estimates with 2- and 3-way set queries.
func tenantsPhase(r *run, end time.Time) []*phaseStats {
	base := r.nodes[0].url
	return parallel(2, func(c int, ps *phaseStats) {
		if c == 0 {
			r.openIngest(ps, r.stream(0), end, base+"/v1/ingest?store=")
			return
		}
		rng := rand.New(rand.NewPCG(r.cfg.seed, 1000))
		for i := 0; time.Now().Before(end); i++ {
			if i%readMix < readMix-1 {
				url := base + "/v1/estimate?store=" + r.names[rng.IntN(r.w.stores)]
				r.op(&ps.estimate, func() (time.Duration, error) {
					_, d, err := r.estimate(url)
					return d, err
				})
				continue
			}
			stores := neighbours(rng.IntN(r.w.stores), queryWidth(i/readMix), r.w.stores)
			r.op(&ps.query, func() (time.Duration, error) {
				_, d, err := r.query(base, stores, "")
				return d, err
			})
		}
	})
}

// openIngest sends one batch every 1/tenantRate seconds, each timed from
// when it was due, with at most one request in flight.
func (r *run) openIngest(ps *phaseStats, s *stream, end time.Time, url string) {
	interval := time.Second / tenantRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		b := s.next(r.w.pick(s, 0, i), r.w.batchKeys)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		ps.endLag = sent.Sub(due)
		ps.lag = append(ps.lag, ms(ps.endLag))
		ok := r.op(&ps.ingest, func() (time.Duration, error) {
			_, err := r.ingest(url, b)
			return time.Since(due), err
		})
		if ok {
			ps.keys += int64(len(b.ids))
			ps.bytes += int64(len(b.body))
		}
	}
}

// cluster: a closed-loop client posts 500-key frames to
// /v1/cluster/ingest round-robin over the nodes, beside a closed-loop
// reader mixing mode=local estimates with mode=gather estimates.
func clusterPhase(r *run, end time.Time) []*phaseStats {
	return parallel(2, func(c int, ps *phaseStats) {
		if c == 0 {
			r.closedIngest(ps, 0, end, func(j int) string {
				return r.nodes[j%len(r.nodes)].url + "/v1/cluster/ingest?store="
			})
			return
		}
		rng := rand.New(rand.NewPCG(r.cfg.seed, 1000))
		for i := 0; time.Now().Before(end); i++ {
			mode, dst := "local", &ps.estimate
			if i%readMix == readMix-1 {
				mode, dst = "gather", &ps.gather
			}
			url := fmt.Sprintf("%s/v1/cluster/estimate?mode=%s&store=%s",
				r.nodes[i%len(r.nodes)].url, mode, r.names[rng.IntN(r.w.stores)])
			r.op(dst, func() (time.Duration, error) {
				_, d, err := r.estimate(url)
				return d, err
			})
		}
	})
}

// queryWidth gives the operand count of the q-th set query: 2, 2, 3,
// repeating. Two 2-way queries per 3-way one keep the median inside
// the 2-way mode instead of between the two modes.
func queryWidth(q int) int {
	if q%3 == 2 {
		return 3
	}
	return 2
}

// neighbours returns k consecutive stores starting near first.
// Neighbouring tenants stores share half their ids.
func neighbours(first, k, stores int) []int {
	first = min(first, stores-k)
	out := make([]int, k)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// The idle probe's set queries: probeQueryCount 2-way queries, whose
// median is idle_query_p50_ms, then probe3Count 3-way queries, checked
// but kept out of that median: with one width in the timed list, the
// median is the middle of one cost mode.
const (
	probeQueryCount = 18
	probe3Count     = 2
)

// probeQueries spreads n queries of width k over neighbouring stores.
func probeQueries(stores, n, k int) [][]int {
	var out [][]int
	for i := range n {
		out = append(out, neighbours(i*stores/n, k, stores))
	}
	return out
}

// checkEstimate counts an estimate outside ε of the truth as a failure.
func (r *run) checkEstimate(store int, got float64, where string) {
	want := float64(r.truth.count(store))
	if math.Abs(got-want) > epsilon*want {
		r.violation(fmt.Sprintf("%s: %s estimate %.0f, truth %.0f (error %.2f%% > ε)",
			where, r.names[store], got, want, 100*math.Abs(got-want)/want))
	}
}

// checkQuery holds a set-query answer to the error budget it reports:
// each cardinality and the union within ε, the intersection within
// intersection_err_bound.
func (r *run) checkQuery(stores []int, q queryReply, where string) {
	bad := func(got, want, budget float64) bool { return math.Abs(got-want) > budget }
	union := float64(r.truth.combine(stores, false))
	inter := float64(r.truth.combine(stores, true))
	msg := ""
	switch {
	case len(q.Cards) != len(stores):
		msg = fmt.Sprintf("%d cardinalities for %d stores", len(q.Cards), len(stores))
	case bad(q.Union, union, q.Epsilon*union):
		msg = fmt.Sprintf("union %.0f, truth %.0f", q.Union, union)
	case bad(q.Intersection, inter, q.ErrBound):
		msg = fmt.Sprintf("intersection %.0f, truth %.0f, budget %.0f", q.Intersection, inter, q.ErrBound)
	default:
		for i, s := range stores {
			want := float64(r.truth.count(s))
			if bad(q.Cards[i], want, q.Epsilon*want) {
				msg = fmt.Sprintf("%s cardinality %.0f, truth %.0f", r.names[s], q.Cards[i], want)
			}
		}
	}
	if msg != "" {
		r.violation(fmt.Sprintf("%s: query %v: %s", where, stores, msg))
	}
}

// checkedEstimates reads every store's estimate from url(store),
// checks each, and records each call's latency into dst.
func (r *run) checkedEstimates(url func(store int) string, where string, dst *samples) {
	for s := range r.w.stores {
		var got float64
		if r.op(dst, func() (time.Duration, error) {
			v, d, err := r.estimate(url(s))
			got = v
			return d, err
		}) {
			r.checkEstimate(s, got, where)
		}
	}
}

// idleProbe times checked reads on the workload's final state with no
// other load: idleRounds estimates of every store, then the probe
// queries, each spread round-robin over the nodes. Its medians are
// idle_estimate_p50_ms and idle_query_p50_ms, measured the same way on
// every workload.
func (r *run) idleProbe(estimatePath, queryMode string) {
	for i := range r.w.idleRounds {
		base := r.nodes[i%len(r.nodes)].url + estimatePath
		r.checkedEstimates(func(s int) string { return base + r.names[s] }, "idle probe", &r.idle.estimate)
	}
	timed := probeQueries(r.w.stores, probeQueryCount, 2)
	for i, stores := range append(timed, probeQueries(r.w.stores, probe3Count, 3)...) {
		dst := &r.idle.query
		if i >= len(timed) {
			dst = new(samples)
		}
		var q queryReply
		if r.op(dst, func() (time.Duration, error) {
			v, d, err := r.query(r.nodes[i%len(r.nodes)].url, stores, queryMode)
			q = v
			return d, err
		}) {
			r.checkQuery(stores, q, "idle probe")
		}
	}
}

func singleNodeGate(r *run) error {
	r.idleProbe("/v1/estimate?store=", "")
	return nil
}

// clusterGate waits for every node's gossip view to catch up (a check
// of the gossip path), runs the idle probe with scatter-gather reads,
// then joins the standby through node 0, checks the gathered estimates,
// removes the standby, and checks once more. The idle probe uses
// mode=gather because an unchanged mode=local view answers from cache
// in well under a millisecond, too close to timer noise to compare.
func clusterGate(r *run) error {
	base := r.nodes[0].url
	gather := func(s int) string { return base + "/v1/cluster/estimate?mode=gather&store=" + r.names[s] }
	if err := r.awaitReplicas(); err != nil {
		r.violation(err.Error())
	}
	r.idleProbe("/v1/cluster/estimate?mode=gather&store=", "gather")
	for _, step := range []string{"join", "leave"} {
		body, _ := json.Marshal(map[string]string{"url": r.standby.url})
		ok := r.op(new(samples), func() (time.Duration, error) {
			d, err := r.tr.timeCall("http."+step, "cluster", 0, func() error {
				return call(r.client, http.MethodPost, base+"/v1/cluster/"+step, "application/json", body, nil)
			})
			r.rebalance[step] = d
			return d, err
		})
		if !ok {
			return fmt.Errorf("cluster %s failed", step)
		}
		r.checkedEstimates(gather, "after "+step, new(samples))
	}
	return nil
}

// awaitReplicas polls every node's mode=local estimates until each is
// within ε of the truth: gossip has carried the phase's last writes.
func (r *run) awaitReplicas() error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		lagging := ""
		for _, n := range r.nodes {
			for s := range r.w.stores {
				got, _, err := r.estimate(n.url + "/v1/cluster/estimate?mode=local&store=" + r.names[s])
				want := float64(r.truth.count(s))
				if err != nil || math.Abs(got-want) > epsilon*want {
					lagging = fmt.Sprintf("%s on %s (estimate %.0f, truth %.0f, err %v)", r.names[s], n.url, got, want, err)
				}
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gossip views still behind after 15s: %s", lagging)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// preload sends the fixed set-up batches: the same for every seed, so
// set-up time does not depend on the workload seed.
func (r *run) preload() error {
	path := "/v1/ingest?store="
	if r.w.nodes > 1 {
		path = "/v1/cluster/ingest?store="
	}
	errs := make([]error, 2)
	parallel(2, func(c int, _ *phaseStats) {
		s := newStream(0, 100+uint64(c), r.w.src(), r.w.frames, r.names)
		for j := c; j < r.w.preload*r.w.stores; j += 2 {
			b := s.next(j%r.w.stores, r.w.batchKeys)
			if _, errs[c] = r.ingest(r.nodes[j%len(r.nodes)].url+path, b); errs[c] != nil {
				return
			}
		}
	})
	return errors.Join(errs...)
}

func storeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "s" + strconv.Itoa(i)
	}
	return out
}
