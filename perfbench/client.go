package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// span is one call the benchmark made, timed from its own side of the
// layer boundary. Spans exist only in the traced run.
type span struct {
	Name    string  `json:"name"`  // e.g. "http.ingest", "knw.clone"
	Layer   string  `json:"layer"` // the repo module the call enters
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	Keys    int     `json:"keys,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name, layer string, start time.Time, d time.Duration, keys int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer,
		StartMs: float64(start.Sub(t.t0)) / 1e6, DurMs: float64(d) / 1e6, Keys: keys})
	t.mu.Unlock()
}

// sum adds up the durations, in seconds, of the spans named name that
// started within [from, to) seconds of t0, and counts them.
func (t *tracer) sum(name string, from, to float64) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, n := 0.0, 0
	for _, sp := range t.spans {
		if start := sp.StartMs / 1e3; sp.Name == name && start >= from && start < to {
			s += sp.DurMs / 1e3
			n++
		}
	}
	return s, n
}

// timeCall runs fn and returns its duration, recording a span.
func (t *tracer) timeCall(name, layer string, keys int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.record(name, layer, start, d, keys)
	return d, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		},
	}
}

// call performs one request and stores the reply in out: raw into a
// *[]byte, decoded as JSON into anything else, dropped when out is nil.
// A non-200 status is an error.
func call(c *http.Client, method, url, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %.200s", method, url, resp.StatusCode, data)
	}
	switch o := out.(type) {
	case nil:
	case *[]byte:
		*o = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return nil
}

const frameType = "application/x-knw-frame"

// ingest posts one generated batch and, once acknowledged, adds its ids
// to the truth.
func (r *run) ingest(url string, b batch) (time.Duration, error) {
	ct := "text/plain"
	if r.w.frames {
		ct = frameType
	}
	d, err := r.tr.timeCall("http.ingest", "service", len(b.ids), func() error {
		return call(r.client, http.MethodPost, url+r.names[b.store], ct, b.body, nil)
	})
	if err == nil {
		r.truth.add(b.store, b.ids)
	}
	return d, err
}

// estimateReply covers /v1/estimate and /v1/cluster/estimate.
type estimateReply struct {
	AllTime float64 `json:"all_time"`
	Partial bool    `json:"partial"`
}

func (r *run) estimate(url string) (float64, time.Duration, error) {
	var out estimateReply
	d, err := r.tr.timeCall("http.estimate", "service", 0, func() error {
		return call(r.client, http.MethodGet, url, "", nil, &out)
	})
	if err == nil && out.Partial {
		err = fmt.Errorf("GET %s: partial answer", url)
	}
	return out.AllTime, d, err
}

// queryReply is the part of a /v1/query answer the gate checks.
type queryReply struct {
	Cards        []float64 `json:"cardinalities"`
	Union        float64   `json:"union"`
	Intersection float64   `json:"intersection"`
	Epsilon      float64   `json:"epsilon"`
	ErrBound     float64   `json:"intersection_err_bound"`
	Partial      bool      `json:"partial"`
}

func (r *run) query(base string, stores []int, mode string) (queryReply, time.Duration, error) {
	url := base + "/v1/query?stores="
	for i, s := range stores {
		if i > 0 {
			url += ","
		}
		url += r.names[s]
	}
	if mode != "" {
		url += "&mode=" + mode
	}
	var out queryReply
	d, err := r.tr.timeCall("http.query", "service", 0, func() error {
		return call(r.client, http.MethodGet, url, "", nil, &out)
	})
	if err == nil && out.Partial {
		err = fmt.Errorf("GET %s: partial answer", url)
	}
	return out, d, err
}
