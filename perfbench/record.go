package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// record is everything one run measured. It is printed, and saved as
// JSON under the -out directory.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Machine    machine            `json:"machine"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"` // sample count behind each timing
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Violations []string           `json:"violations,omitempty"`
	Spans      int                `json:"spans,omitempty"`
}

// units names the unit of every metric the benchmark can report. The
// self-test holds BENCHMARK.json and layers.json to it.
var units = map[string]string{
	"setup_s": "s", "ingest_keys_per_s": "keys/s", "ingest_p50_ms": "ms", "ingest_p90_ms": "ms", "ingest_p99_ms": "ms",
	"estimate_p50_ms": "ms", "estimate_p99_ms": "ms", "query_p50_ms": "ms", "query_p90_ms": "ms",
	"idle_estimate_p50_ms": "ms", "idle_query_p50_ms": "ms",
	"gather_p50_ms": "ms", "gather_p90_ms": "ms", "rebalance_s": "s", "rss_peak_mb": "MB",
	"cpu_s_per_mkey": "s/Mkey", "error_rate": "ratio", "generator_lag_p99_ms": "ms",

	"frame.decode_ns_per_key": "ns", "frame.bytes_per_key": "count",
	"knw.add_batch_ns_per_key": "ns", "knw.merge_into_ms": "ms", "knw.estimate_us": "us",
	"knw.clone_ms": "ms", "knw.set_stats_2_ms": "ms", "knw.set_stats_3_ms": "ms",
	"knw.open_ms": "ms", "knw.marshal_ms": "ms", "knw.envelope_bytes": "bytes", "knw.heap_bytes_per_sketch": "bytes",

	"store.ingest_hashed_ns_per_key": "ns", "store.ingest_ns_per_key": "ns", "store.flush_ms": "ms",
	"store.epoch_flushes": "count", "store.pending_delta_keys_max": "count",
	"store.estimate_ms": "ms", "store.set_query_2_ms": "ms", "store.set_query_3_ms": "ms",
	"store.entry_create_ms": "ms", "store.heap_bytes_per_entry": "bytes",
	"store.heap_bytes_per_entry_gmp8": "bytes", "store.snapshot_ms": "ms", "store.snapshot_bytes": "bytes",
	"store.delta_snapshot_ms": "ms", "store.delta_snapshot_bytes": "bytes",
	"store.replica_apply_ms": "ms", "store.replica_estimate_us": "us",
	"service.ingest_ms": "ms", "service.estimate_ms": "ms", "service.query_ms": "ms",
	"service.stage.body_scan_s": "s/Mkey", "service.stage.hash_s": "s/Mkey",
	"service.stage.slot_claim_s": "s/Mkey", "service.stage.append_s": "s/Mkey",
	"service.stage.epoch_merge_s": "s/Mkey", "service.stage.store_ingest_s": "s/Mkey",
	"service.body_bytes_per_key": "count", "service.unattributed_s": "s",
	"cluster.forward_ms": "ms", "cluster.forward_keys_per_key": "ratio", "cluster.forward_retries": "count",
	"cluster.gather_ms": "ms", "cluster.gather_partial": "count", "cluster.gossip_round_ms": "ms",
	"cluster.gossip_pull_s": "s/Mkey", "cluster.gossip_apply_s": "s/Mkey",
	"cluster.gossip_tx_bytes_per_key": "count", "cluster.gossip_full_ratio": "ratio",
	"cluster.staleness_max_s": "s", "cluster.join_s": "s", "cluster.leave_s": "s",
	"cluster.handoff_bytes": "bytes", "cluster.handoff_push_s": "s", "cluster.handoff_retries": "count",
	"knwd.startup_s": "s", "knwd.rss_mb": "MB", "knwd.cpu_s": "s",
	"trace.overhead_pct": "%", "trace.stream_s": "s", "trace.bench_s": "s", "trace.service_s": "s",
	"trace.store_s": "s", "trace.knw_s": "s", "trace.cluster_s": "s",
	"replay.wall_s": "s", "replay.frame_s": "s", "replay.knw_s": "s", "replay.store_s": "s",
	"replay.unattributed_s": "s",
}

// timing records a percentile of s under name with its sample count,
// or nothing when too few samples sit beyond the percentile.
func (rec *record) timing(name string, s samples, p float64) {
	if rec.Samples == nil {
		rec.Samples = map[string]int{}
	}
	rec.Samples[name] = len(s)
	if len(s) == 0 || (p > 50 && !s.tailOK(p)) {
		return
	}
	rec.Metrics[name] = s.percentile(p)
}

func (rec *record) endToEnd(r *run, ph *phaseResult, setupS, hwm []float64) {
	m := rec.Metrics
	m["setup_s"] = median(setupS)
	m["ingest_keys_per_s"] = float64(ph.keys) / ph.wall.Seconds()
	m["cpu_s_per_mkey"] = ph.cpuS / (float64(ph.keys) / 1e6)
	rss := 0.0
	for _, h := range hwm {
		rss += h
	}
	m["rss_peak_mb"] = rss
	rec.timing("ingest_p50_ms", ph.ingest, 50)
	rec.timing("ingest_p90_ms", ph.ingest, 90)
	rec.timing("ingest_p99_ms", ph.ingest, 99)
	rec.timing("idle_estimate_p50_ms", r.idle.estimate, 50)
	rec.timing("idle_query_p50_ms", r.idle.query, 50)
	if len(ph.estimate) > 0 {
		rec.timing("estimate_p50_ms", ph.estimate, 50)
		rec.timing("estimate_p99_ms", ph.estimate, 99)
	}
	if len(ph.query) > 0 {
		rec.timing("query_p50_ms", ph.query, 50)
		rec.timing("query_p90_ms", ph.query, 90)
	}
	if len(ph.gather) > 0 {
		rec.timing("gather_p50_ms", ph.gather, 50)
		rec.timing("gather_p90_ms", ph.gather, 90)
	}
	if len(ph.lag) > 0 {
		rec.timing("generator_lag_p99_ms", ph.lag, 99)
	}
	if len(r.rebalance) > 0 {
		m["rebalance_s"] = (r.rebalance["join"] + r.rebalance["leave"]).Seconds()
	}
}

// perLayer derives the layer metrics of the traced run from the
// benchmark's spans, the daemons' /metrics deltas over the phase, and
// the untraced phase run just before it.
func (rec *record) perLayer(r *run, ph, base *phaseResult, rebalanced scrape, tr *tracer, startupS, hwm []float64) {
	m := rec.Metrics
	d := func(name string, labels ...string) float64 {
		return ph.after.sum(name, labels...) - ph.before.sum(name, labels...)
	}
	stage := func(s string) float64 { return d("knwd_stage_seconds_sum", `stage="`+s+`"`) }
	mkeys := float64(ph.keys) / 1e6
	perKey := func(sum float64) float64 { return sum / mkeys }
	meanMs := func(sum, count float64) float64 {
		if count == 0 {
			return 0
		}
		return 1e3 * sum / count
	}

	for _, s := range []string{"body_scan", "hash", "slot_claim", "append", "epoch_merge", "store_ingest"} {
		m["service.stage."+s+"_s"] = perKey(stage(s))
	}
	m["service.body_bytes_per_key"] = float64(ph.bytes) / float64(ph.keys)
	m["store.epoch_flushes"] = d("knwd_store_epoch_flushes_total")
	m["store.pending_delta_keys_max"] = ph.pendingMax
	for _, c := range []struct{ metric, span string }{
		{"service.ingest_ms", "http.ingest"}, {"service.estimate_ms", "http.estimate"}, {"service.query_ms", "http.query"},
	} {
		sum, n := tr.sum(c.span, 0, math.Inf(1))
		m[c.metric] = meanMs(sum, float64(n))
	}

	// Partition the client streams' time over the phase. Each stream's
	// wall time is either inside one of its HTTP calls or the
	// benchmark's own (generating bodies, waiting for the schedule).
	// Inside the calls, the daemons' leaf request-path stage sums are
	// attributed to their layers (store_ingest is left out: it contains
	// hash, slot_claim and append); the remainder (HTTP, JSON, handlers
	// without a stage) is unattributed. On the cluster, forwarded work
	// runs on the owners inside peer_forward, in parallel across
	// replicas, so the cluster's share can overlap the others and the
	// remainder can go negative.
	var inCalls float64
	for _, name := range []string{"http.ingest", "http.estimate", "http.query"} {
		s, _ := tr.sum(name, 0, ph.wall.Seconds())
		inCalls += s
	}
	streamS := float64(ph.streams) * ph.wall.Seconds()
	m["trace.stream_s"] = streamS
	m["trace.bench_s"] = streamS - inCalls
	m["trace.service_s"] = stage("body_scan")
	m["trace.knw_s"] = stage("hash") + stage("append") + stage("set_algebra")
	m["trace.store_s"] = stage("slot_claim")
	m["trace.cluster_s"] = stage("peer_forward") + d("knwd_cluster_gather_seconds_sum")
	m["service.unattributed_s"] = inCalls - m["trace.service_s"] - m["trace.knw_s"] - m["trace.store_s"] - m["trace.cluster_s"]
	if base != nil {
		untraced := base.ingest.percentile(50)
		m["trace.overhead_pct"] = 100 * (ph.ingest.percentile(50) - untraced) / untraced
	}

	m["knwd.startup_s"] = median(startupS)
	m["knwd.rss_mb"] = rec.Metrics["rss_peak_mb"] / float64(len(hwm))
	m["knwd.cpu_s"] = ph.cpuS / float64(len(r.daemons()))

	if r.w.nodes > 1 {
		m["cluster.forward_ms"] = meanMs(d("knwd_cluster_forward_seconds_sum"), d("knwd_cluster_forward_seconds_count"))
		m["cluster.forward_keys_per_key"] = d("knwd_cluster_forward_keys_total") / float64(ph.keys)
		m["cluster.forward_retries"] = d("knwd_cluster_forward_retries_total")
		m["cluster.gather_ms"] = meanMs(d("knwd_cluster_gather_seconds_sum"), d("knwd_cluster_gather_seconds_count"))
		m["cluster.gather_partial"] = d("knwd_cluster_gather_partial_total")
		m["cluster.gossip_round_ms"] = meanMs(d("knwd_gossip_round_seconds_sum"), d("knwd_gossip_round_seconds_count"))
		m["cluster.gossip_pull_s"] = perKey(stage("gossip_pull"))
		m["cluster.gossip_apply_s"] = perKey(stage("gossip_apply"))
		m["cluster.gossip_tx_bytes_per_key"] = (d("knwd_gossip_tx_delta_bytes_total") + d("knwd_gossip_tx_full_bytes_total")) / float64(ph.keys)
		fulls, deltas := d("knwd_gossip_tx_fulls_total"), d("knwd_gossip_tx_deltas_total")
		if fulls+deltas > 0 {
			m["cluster.gossip_full_ratio"] = fulls / (fulls + deltas)
		}
		m["cluster.staleness_max_s"] = ph.staleMax
		m["cluster.join_s"] = r.rebalance["join"].Seconds()
		m["cluster.leave_s"] = r.rebalance["leave"].Seconds()
		rd := func(name string, labels ...string) float64 {
			return rebalanced.sum(name, labels...) - ph.after.sum(name, labels...)
		}
		m["cluster.handoff_bytes"] = rd("knwd_handoff_bytes_total")
		m["cluster.handoff_push_s"] = rd("knwd_stage_seconds_sum", `stage="handoff_push"`)
		m["cluster.handoff_retries"] = rd("knwd_handoff_retries_total")
	}
}

// print writes every measured metric with its unit, then any failures.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	mc := rec.Machine
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d daemon_gomaxprocs=%s go=%s daemon_go=%s kernel=%s commit=%s source_sha256=%.16s mem_available_mb=%.0f\n",
		mc.CPU, mc.NProc, mc.DaemonGOMAXPROCS, mc.GoVersion, mc.DaemonGoVersion, mc.Kernel, mc.Commit, mc.SourceSHA256, mc.MemAvailableMB)
	var names []string
	for k := range rec.Metrics {
		names = append(names, k)
	}
	for k, c := range rec.Samples {
		if _, ok := rec.Metrics[k]; !ok && c > 0 {
			names = append(names, k) // a tail without ten samples beyond it
		}
	}
	sort.Strings(names)
	for _, k := range names {
		v, ok := rec.Metrics[k]
		switch c, timed := rec.Samples[k]; {
		case !ok:
			fmt.Fprintf(w, "  %-36s %14s %s  (n=%d: fewer than 10 samples beyond it)\n", k, "-", units[k], c)
		case timed:
			fmt.Fprintf(w, "  %-36s %14.6g %s  (n=%d)\n", k, v, units[k], c)
		default:
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, v, units[k])
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

// machine identifies where and on what a result was measured, so
// results from different machines or sources are never compared
// silently.
type machine struct {
	CPU              string  `json:"cpu"`
	NProc            int     `json:"nproc"`
	DaemonGOMAXPROCS string  `json:"daemon_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	DaemonGoVersion  string  `json:"daemon_go_version"`
	Kernel           string  `json:"kernel"`
	Commit           string  `json:"commit"`
	SourceSHA256     string  `json:"source_sha256"`
	MemAvailableMB   float64 `json:"mem_available_mb"`
}

func machineRecord(r *run) machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: gitCommit(), SourceSHA256: sourceDigest()}
	if s, err := getScrape(r.client, r.nodes[0].url); err == nil {
		m.DaemonGOMAXPROCS = s.label("knwd_build_info", "gomaxprocs")
		m.DaemonGoVersion = s.label("knwd_build_info", "goversion")
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "MemAvailable:"); ok {
				var kb float64
				fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
				m.MemAvailableMB = kb / 1024
			}
		}
	}
	return m
}

// gitCommit reads HEAD from .git without running git; a checkout
// without .git reports "none" and relies on the source digest.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file under
// the working directory, skipping build output and .git.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "BENCHMARK.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
