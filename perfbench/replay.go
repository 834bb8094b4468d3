package main

import (
	"bytes"
	"context"
	"encoding"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	knw "repro"
	"repro/internal/frame"
	"repro/store"
)

// The in-process replay of the traced run: after the HTTP phase, the
// phase's first generated batches and envelopes captured from the
// daemon go through the exported functions of internal/frame, store
// and knw in this process, one span around each call. It isolates
// each layer's cost from HTTP and from the other layers.

const (
	replayBatches = 8
	replayReps    = 5
)

type replayer struct {
	tr  *tracer
	m   map[string]float64
	err error
}

// timeN calls fn reps times, each under a span, and returns the median
// duration in milliseconds and the total in seconds.
func (rp *replayer) timeN(name, layer string, reps, keys int, fn func() error) (medMs, totalS float64) {
	var ds []float64
	for range reps {
		if rp.err != nil {
			return 0, 0
		}
		d, err := rp.tr.timeCall(name, layer, keys, fn)
		if err != nil {
			rp.err = fmt.Errorf("%s: %w", name, err)
			return 0, 0
		}
		ds = append(ds, ms(d))
		totalS += d.Seconds()
	}
	return median(ds), totalS
}

// heapPer measures live heap growth per object for n objects made by mk.
func heapPer(n int, mk func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range n {
		if err := mk(i); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(n), nil
}

func sketchOptions() []knw.Option {
	return []knw.Option{knw.WithEpsilon(epsilon), knw.WithDelta(0.05),
		knw.WithUniverseBits(universeBits), knw.WithSeed(daemonSeed)}
}

// captureEnvelopes fetches the envelopes of the first three stores as
// node 0 holds them, for the replay to open, merge and query.
func (r *run) captureEnvelopes() ([][]byte, error) {
	envs := make([][]byte, 3)
	for i := range envs {
		url := r.nodes[0].url + "/v1/snapshot?store=" + r.names[i]
		if err := call(r.client, http.MethodGet, url, "", nil, &envs[i]); err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// replay runs after the daemons have stopped, so they neither compete
// for the CPU nor hold memory while it measures.
func (r *run) replay(ctx context.Context, rec *record, tr *tracer, envs [][]byte) error {
	rp := &replayer{tr: tr, m: rec.Metrics}
	wallStart := time.Now()
	spansBefore := len(tr.spans)

	// The phase's first batches, regenerated from the seed.
	s := r.stream(0)
	hasher := knw.NewHasher[string](daemonSeed, universeBits)
	var frames [][]byte
	var hashed [][]uint64
	var strs [][]string
	keys := 0
	for j := range replayBatches {
		b := s.next(r.w.pick(s, 0, j), r.w.batchKeys)
		h := make([]uint64, len(b.ids))
		k := make([]string, len(b.ids))
		for i, id := range b.ids {
			k[i] = keyString(id)
			h[i] = hasher.Hash(k[i])
		}
		f := b.body
		if !r.w.frames {
			f = frame.AppendDoc(frame.AppendHeader(nil), r.names[b.store], h)
		}
		frames, hashed, strs = append(frames, f), append(hashed, h), append(strs, k)
		keys += len(h)
	}

	// frame: decode every frame.
	fbytes := 0
	for _, f := range frames {
		fbytes += len(f)
	}
	rp.m["frame.bytes_per_key"] = float64(fbytes) / float64(keys)
	scan := make([]byte, 64<<10)
	dst := make([]uint64, 4096)
	_, tot := rp.timeN("frame.decode", "frame", replayReps, keys, func() error {
		for _, f := range frames {
			if err := decodeFrame(f, scan, dst); err != nil {
				return err
			}
		}
		return nil
	})
	rp.m["frame.decode_ns_per_key"] = 1e9 * tot / float64(replayReps*keys)

	// knw: the sketch kind every store uses.
	kind := knw.KindConcurrentF0
	opts := sketchOptions()
	sk, err := knw.New(kind, opts...)
	if err != nil {
		return err
	}
	_, tot = rp.timeN("knw.add_batch", "knw", 1, keys, func() error {
		for _, h := range hashed {
			sk.AddBatch(h)
		}
		return nil
	})
	rp.m["knw.add_batch_ns_per_key"] = 1e9 * tot / float64(keys)
	var opened [3]knw.Estimator
	for i, env := range envs {
		if opened[i], err = knw.Open(env); err != nil {
			return fmt.Errorf("opening the %s envelope: %w", r.names[i], err)
		}
	}
	a, b, c := opened[0], opened[1], opened[2]
	rp.m["knw.envelope_bytes"] = float64(len(envs[0]))
	rp.m["knw.open_ms"], _ = rp.timeN("knw.open", "knw", replayReps, 0, func() error {
		_, err := knw.Open(envs[0])
		return err
	})
	rp.m["knw.marshal_ms"], _ = rp.timeN("knw.marshal", "knw", replayReps, 0, func() error {
		_, err := a.(encoding.BinaryMarshaler).MarshalBinary()
		return err
	})
	estMs, _ := rp.timeN("knw.estimate", "knw", 4*replayReps, 0, func() error { a.Estimate(); return nil })
	rp.m["knw.estimate_us"] = 1e3 * estMs
	rp.m["knw.clone_ms"], _ = rp.timeN("knw.clone", "knw", replayReps, 0, func() error {
		_, err := knw.Clone(a)
		return err
	})
	var merges []float64
	for range replayReps {
		dstSk, err := knw.Clone(a)
		if err != nil {
			return err
		}
		d, err := tr.timeCall("knw.merge_into", "knw", 0, func() error { return knw.MergeInto(dstSk, b) })
		if err != nil {
			return err
		}
		merges = append(merges, ms(d))
	}
	rp.m["knw.merge_into_ms"] = median(merges)
	rp.m["knw.set_stats_2_ms"], _ = rp.timeN("knw.set_stats_2", "knw", 3, 0, func() error {
		_, err := knw.NewSetStats(a, b)
		return err
	})
	rp.m["knw.set_stats_3_ms"], _ = rp.timeN("knw.set_stats_3", "knw", 3, 0, func() error {
		_, err := knw.NewSetStats(a, b, c)
		return err
	})
	var keep []knw.Estimator
	if rp.m["knw.heap_bytes_per_sketch"], err = heapPer(4, func(int) error {
		e, err := knw.New(kind, opts...)
		keep = append(keep, e)
		return err
	}); err != nil {
		return err
	}
	runtime.KeepAlive(keep)
	if rp.err != nil {
		return rp.err
	}

	if err := r.replayStore(rp, envs, hashed, strs, keys); err != nil {
		return err
	}

	// Partition the replay's wall time by the layer of each span.
	wall := time.Since(wallStart).Seconds()
	layers := map[string]float64{}
	for _, sp := range tr.spans[spansBefore:] {
		layers[sp.Layer] += sp.DurMs / 1e3
	}
	rp.m["replay.wall_s"] = wall
	rp.m["replay.frame_s"] = layers["frame"]
	rp.m["replay.knw_s"] = layers["knw"]
	rp.m["replay.store_s"] = layers["store"]
	rp.m["replay.unattributed_s"] = wall - layers["frame"] - layers["knw"] - layers["store"]
	return ctx.Err()
}

func (r *run) replayStore(rp *replayer, envs [][]byte, hashed [][]uint64, strs [][]string, keys int) error {
	cfg := store.Config{Kind: knw.KindConcurrentF0, Options: sketchOptions(), EpochInterval: -1}
	st, err := store.New(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	names := []string{"a", "b", "c"}
	for i, env := range envs {
		if err := st.Restore(names[i], env); err != nil {
			return fmt.Errorf("restoring the %s envelope: %w", r.names[i], err)
		}
	}

	var creates []float64
	if rp.m["store.heap_bytes_per_entry"], err = heapPer(4, func(i int) error {
		d, err := rp.tr.timeCall("store.entry_create", "store", 1, func() error {
			return st.IngestHashed(fmt.Sprintf("new%d", i), hashed[0][:1])
		})
		creates = append(creates, ms(d))
		return err
	}); err != nil {
		return err
	}
	rp.m["store.entry_create_ms"] = median(creates)

	var ingestS float64
	var flushes []float64
	for _, h := range hashed {
		d, err := rp.tr.timeCall("store.ingest_hashed", "store", len(h), func() error { return st.IngestHashed("a", h) })
		if err != nil {
			return err
		}
		ingestS += d.Seconds()
		d, _ = rp.tr.timeCall("store.flush", "store", 0, func() error { st.Flush(); return nil })
		flushes = append(flushes, ms(d))
	}
	rp.m["store.ingest_hashed_ns_per_key"] = 1e9 * ingestS / float64(keys)
	rp.m["store.flush_ms"] = median(flushes)
	ingestS = 0
	for _, k := range strs {
		d, err := rp.tr.timeCall("store.ingest", "store", len(k), func() error { return st.Ingest("b", k) })
		if err != nil {
			return err
		}
		ingestS += d.Seconds()
		st.Flush()
	}
	rp.m["store.ingest_ns_per_key"] = 1e9 * ingestS / float64(keys)

	rp.m["store.estimate_ms"], _ = rp.timeN("store.estimate", "store", replayReps, 0, func() error {
		_, err := st.Estimate("a")
		return err
	})
	rp.m["store.set_query_2_ms"], _ = rp.timeN("store.set_query_2", "store", 3, 0, func() error {
		_, err := st.SetQuery(names[:2], false)
		return err
	})
	rp.m["store.set_query_3_ms"], _ = rp.timeN("store.set_query_3", "store", 3, 0, func() error {
		_, err := st.SetQuery(names, false)
		return err
	})
	var snap []byte
	rp.m["store.snapshot_ms"], _ = rp.timeN("store.snapshot", "store", replayReps, 0, func() error {
		var err error
		snap, err = st.Snapshot("a", snap[:0])
		return err
	})
	rp.m["store.snapshot_bytes"] = float64(len(snap))

	// Gossip: a full envelope at version v, then a delta past one more
	// batch, applied to a peer's replica view.
	full, err := st.DeltaSnapshot("a", 0, false)
	if err != nil {
		return err
	}
	fullEnv := append([]byte(nil), full.Env...)
	fresh := make([]string, len(strs[0])) // keys "a" has not seen yet
	for i, k := range strs[0] {
		fresh[i] = "d" + k
	}
	if err := st.Ingest("a", fresh); err != nil {
		return err
	}
	st.Flush()
	var delta store.DeltaSnap
	rp.m["store.delta_snapshot_ms"], _ = rp.timeN("store.delta_snapshot", "store", replayReps, 0, func() error {
		var err error
		delta, err = st.DeltaSnapshot("a", full.Version, true)
		return err
	})
	rp.m["store.delta_snapshot_bytes"] = float64(len(delta.Env))
	peerSt, err := store.New(cfg)
	if err != nil {
		return err
	}
	defer peerSt.Close()
	rs := store.NewReplicaSet(peerSt)
	var applies []float64
	for range replayReps {
		if err := rs.ApplyFull("peer", "a", full.Version, fullEnv); err != nil {
			return err
		}
		apply := rs.ApplyFull
		if delta.Delta {
			apply = func(peer, name string, _ uint64, env []byte) error { return rs.ApplyDelta(peer, name, env) }
		}
		d, err := rp.tr.timeCall("store.replica_apply", "store", 0, func() error {
			return apply("peer", "a", delta.Version, delta.Env)
		})
		if err != nil {
			return err
		}
		applies = append(applies, ms(d))
	}
	rp.m["store.replica_apply_ms"] = median(applies)
	estMs, _ := rp.timeN("store.replica_estimate", "store", 4*replayReps, 0, func() error {
		_, err := rs.Estimate("a")
		return err
	})
	rp.m["store.replica_estimate_us"] = 1e3 * estMs

	// Heap per entry when the store runs with GOMAXPROCS=8: the sharded
	// sketch kinds size themselves by it.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	st8, err := store.New(cfg)
	if err != nil {
		return err
	}
	defer st8.Close()
	if rp.m["store.heap_bytes_per_entry_gmp8"], err = heapPer(2, func(i int) error {
		return st8.IngestHashed(fmt.Sprintf("new%d", i), hashed[0][:1])
	}); err != nil {
		return err
	}
	return rp.err
}

// decodeFrame reads every key of one frame.
func decodeFrame(f, scan []byte, dst []uint64) error {
	fr := frame.NewReader(bytes.NewReader(f), scan)
	if err := fr.ReadHeader(); err != nil {
		return err
	}
	for {
		_, _, err := fr.NextDoc()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		for {
			n, err := fr.Keys(dst)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
	}
}
