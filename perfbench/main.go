// Command perfbench is the repository benchmark. It builds nothing
// itself (perfbench/run.sh builds knwd and this program), starts real
// knwd daemons as child processes, drives one named workload against
// them for a fixed time, checks every final answer against the exact
// truth it generated, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list, with
// -trace 1 its per_layer list. Run from the repository root:
//
//	bash perfbench/run.sh --workload tenants --seed 3 --seconds 12 --trace 0
//
// --workload all runs ingest, tenants and cluster in turn, each ending
// with its own result line, and exits non-zero if any of them failed.
//
// -spread FILE... instead summarises saved result files (median and
// interquartile spread per metric).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	knwd     string
	out      string
}

// setups is how many times one run sets up from scratch; setup_s is
// their median, and the last set-up is the one measured.
const setups = 3

// warmup is the untimed load before every timed phase; warmupStreams
// offsets its stream ids so it sends other bodies than the phase.
const (
	warmup        = 5 * time.Second
	warmupStreams = 500
)

func main() {
	var cfg config
	var traceN int
	var spreadMode bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, tenants, cluster, or all three in turn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (the daemons' sketch seed stays fixed)")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the timed phase")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.knwd, "knwd", ".bench_build/knwd", "knwd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/results", "directory for logs, spans and result records")
	flag.BoolVar(&spreadMode, "spread", false, "summarise the result files named as arguments")
	flag.Parse()
	cfg.trace = traceN == 1
	if spreadMode {
		if err := printSpread(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if cfg.workload != "all" {
		os.Exit(execute(cfg))
	}
	code := 0
	for _, w := range []string{"ingest", "tenants", "cluster"} {
		cfg.workload = w
		code = max(code, execute(cfg))
	}
	os.Exit(code)
}

// benchSpec is the part of BENCHMARK.json a run reports against.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// errInvalid marks a run whose open-loop generator fell behind: its
// numbers are not reported.
var errInvalid = errors.New("invalid run")

func execute(cfg config) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading BENCHMARK.json:", err)
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (ingest, tenants or cluster)\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &run{cfg: cfg, w: w, client: newClient(), names: storeNames(w.stores),
		procs: &procs{bin: cfg.knwd, dir: cfg.out}, rebalance: map[string]time.Duration{}}
	rec, err := r.execute(ctx)
	r.procs.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}

	rec.print(os.Stdout)
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := rec.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, m.Name)
			return 1
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace))
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
		}
	}
	correct := len(rec.Violations) == 0
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": out,
	})
	fmt.Println(string(line))
	if !correct || rec.Failed > 0 {
		return 1
	}
	return 0
}

// run is the state of one benchmark invocation.
type run struct {
	cfg     config
	w       *workload
	procs   *procs
	client  *http.Client
	names   []string
	nodes   []*daemon
	standby *daemon
	truth   *truth
	tr      *tracer // nil outside the traced phase

	idle      phaseStats // latencies of the idle probe after the phase
	rebalance map[string]time.Duration

	attempted, failed atomic.Int64
	streamBase        uint64 // added to stream ids: the warm-up's streams differ from the phase's
	mu                sync.Mutex
	errs              []string
	violations        []string
}

func (r *run) stream(id uint64) *stream {
	return newStream(r.cfg.seed, r.streamBase+id, r.w.src(), r.w.frames, r.names)
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

func (r *run) violation(msg string) {
	r.failed.Add(1)
	r.mu.Lock()
	r.violations = append(r.violations, msg)
	r.mu.Unlock()
}

// setup starts the workload's daemons from scratch and sends the fixed
// preload: daemon exec → healthy → preload done.
func (r *run) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	r.truth = newTruth(r.w.stores, r.w.ids)
	r.nodes, r.standby = nil, nil
	n := r.w.nodes
	if r.w.standby {
		n++
	}
	ports, err := freePorts(n)
	if err != nil {
		return 0, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	for i := range r.w.nodes {
		var extra []string
		if r.w.nodes > 1 {
			extra = []string{"-peers", strings.Join(urls[:r.w.nodes], ","), "-self", urls[i],
				"-replication", "2", "-gossip-interval", "1s"}
		}
		d, err := r.procs.start(ctx, ports[i], extra...)
		if err != nil {
			return 0, err
		}
		r.nodes = append(r.nodes, d)
	}
	if r.w.standby {
		// The standby boots as a one-node cluster of its own and is
		// joined through node 0 after the timed phase.
		u := urls[n-1]
		if r.standby, err = r.procs.start(ctx, ports[n-1], "-peers", u, "-self", u, "-gossip-interval", "1s"); err != nil {
			return 0, err
		}
	}
	if err := r.preload(); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	return time.Since(t0), nil
}

func (r *run) daemons() []*daemon {
	if r.standby == nil {
		return r.nodes
	}
	return append(append([]*daemon(nil), r.nodes...), r.standby)
}

// phaseResult is one timed phase.
type phaseResult struct {
	phaseStats
	streams       int
	wall          time.Duration
	cpuS          float64
	before, after scrape
	pendingMax    float64 // traced: highest knwd_store_pending_delta_keys seen
	staleMax      float64 // traced: highest knwd_gossip_staleness_seconds seen
}

func (r *run) scrapeAll() (scrape, error) {
	var all []scrape
	for _, d := range r.nodes {
		s, err := getScrape(r.client, d.url)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	return sumAll(all), nil
}

func (r *run) cpu() (float64, error) {
	total := 0.0
	for _, d := range r.daemons() {
		c, _, err := d.usage()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// measurePhase runs the workload's timed phase. With a tracer it also
// samples the daemons' backlog gauges while the phase runs.
func (r *run) measurePhase(ctx context.Context, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{}
	var err error
	// Warm-up: the same traffic, from streams of its own, untimed, so
	// that the daemons' heaps and sketches have settled when timing
	// starts. Its failures still count.
	r.streamBase = warmupStreams
	r.w.phase(r, time.Now().Add(warmup))
	r.streamBase = 0
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if res.before, err = r.scrapeAll(); err != nil {
		return nil, err
	}
	cpu0, err := r.cpu()
	if err != nil {
		return nil, err
	}
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			r.sampleGauges(res, stopSampler)
		}()
	}
	r.tr = tr
	start := time.Now()
	if tr != nil {
		tr.t0 = start // span start times count from the phase start
	}
	parts := r.w.phase(r, start.Add(time.Duration(r.cfg.seconds)*time.Second))
	res.wall = time.Since(start)
	r.tr = nil
	close(stopSampler)
	sampler.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.streams = len(parts)
	for _, p := range parts {
		res.ingest = append(res.ingest, p.ingest...)
		res.estimate = append(res.estimate, p.estimate...)
		res.query = append(res.query, p.query...)
		res.gather = append(res.gather, p.gather...)
		res.lag = append(res.lag, p.lag...)
		res.keys += p.keys
		res.bytes += p.bytes
		res.endLag = max(res.endLag, p.endLag)
	}
	if res.after, err = r.scrapeAll(); err != nil {
		return nil, err
	}
	cpu1, err := r.cpu()
	if err != nil {
		return nil, err
	}
	res.cpuS = cpu1 - cpu0
	if res.endLag > maxEndLag {
		return nil, fmt.Errorf("%w: the open-loop generator ended %v behind its schedule (limit %v)",
			errInvalid, res.endLag.Round(time.Millisecond), maxEndLag)
	}
	return res, nil
}

// sampleGauges polls the backlog gauges every 250ms until stop closes.
func (r *run) sampleGauges(res *phaseResult, stop <-chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, d := range r.nodes {
			s, err := getScrape(r.client, d.url)
			if err != nil {
				continue
			}
			res.pendingMax = max(res.pendingMax, s.sum("knwd_store_pending_delta_keys"))
			res.staleMax = max(res.staleMax, s.sum("knwd_gossip_staleness_seconds"))
		}
	}
}

// execute sets up `setups` times and measures the last set-up. The
// traced run measures the second-to-last set-up untraced first, so the
// tracing overhead is a same-run difference.
func (r *run) execute(ctx context.Context) (*record, error) {
	rec := &record{Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		Trace: r.cfg.trace, Metrics: map[string]float64{}}
	var setupS, startupS []float64
	var base *phaseResult
	for k := range setups {
		d, err := r.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setupS = append(setupS, d.Seconds())
		for _, n := range r.daemons() {
			startupS = append(startupS, n.startup.Seconds())
		}
		if k == setups-1 {
			break
		}
		if r.cfg.trace && k == setups-2 {
			if base, err = r.measurePhase(ctx, nil); err != nil {
				return nil, err
			}
		}
		r.procs.stopAll()
	}
	rec.Machine = machineRecord(r)
	r.attempted.Store(0)
	r.failed.Store(0)
	r.errs = nil

	var tr *tracer
	if r.cfg.trace {
		tr = &tracer{}
	}
	ph, err := r.measurePhase(ctx, tr)
	if err != nil {
		return nil, err
	}
	r.tr = tr
	gateErr := r.w.gate(r)
	var rebalanced scrape
	if r.cfg.trace {
		if rebalanced, err = r.scrapeAll(); err != nil {
			return nil, err
		}
	}
	r.tr = nil
	if gateErr != nil {
		return nil, gateErr
	}
	var hwm []float64
	for _, d := range r.daemons() {
		_, h, err := d.usage()
		if err != nil {
			return nil, err
		}
		hwm = append(hwm, h)
	}
	rec.endToEnd(r, ph, setupS, hwm)
	if r.cfg.trace {
		rec.perLayer(r, ph, base, rebalanced, tr, startupS, hwm)
		envs, err := r.captureEnvelopes()
		if err != nil {
			return nil, err
		}
		r.procs.stopAll()
		if err := r.replay(ctx, rec, tr, envs); err != nil {
			return nil, fmt.Errorf("in-process replay: %w", err)
		}
		rec.Spans = len(tr.spans)
		if err := writeSpans(filepath.Join(r.cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed)), tr.spans); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed = r.attempted.Load(), r.failed.Load()
	rec.Metrics["error_rate"] = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.Errors, rec.Violations = r.errs, r.violations
	return rec, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printSpread reads saved result records and prints, per metric, the
// median and the interquartile spread as a share of the median, the
// rule a run-to-run comparison is judged by.
func printSpread(paths []string) error {
	if len(paths) < 2 {
		return errors.New("-spread needs at least two result files")
	}
	vals := map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for k, v := range rec.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := vals[k]
		if len(v) < 2 {
			continue
		}
		fmt.Printf("%-40s n=%-3d median=%-14.6g spread=%.4f\n", k, len(v), median(v), spread(v))
	}
	return nil
}
