package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header names of the daemons' tracing protocol, spelled out here so the
// bench stays black-box towards internal/telemetry. The gateway honours a
// caller-supplied trace ID and forwards it on every attempt; the replica
// reports its stage split as "stage=ns;..." on the response.
const (
	traceHeader  = "X-Deepsz-Trace"
	stagesHeader = "X-Deepsz-Stages"
)

// span is one timed interval of one request. Spans of a request share its
// trace ID; Parent names the span that caused this one. A span's self time
// is its duration minus its children's.
//
//	client.request  ⊃  replica.attempt (one per hedged attempt)  ⊃  stage.*
type span struct {
	Trace   string            `json:"trace"`
	ID      string            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"` // since the recorder's epoch
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(spans ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// write dumps the spans as one JSON document.
func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stage is one entry of an X-Deepsz-Stages value.
type stage struct {
	Name string
	Ns   int64
}

// parseStages parses "queue=12;batch_wait=34;...". Unknown stage names pass
// through (a later PR may add or rename stages); malformed entries are an
// error, since a half-parsed split would silently shift time into
// http_self.
func parseStages(v string) ([]stage, error) {
	if v == "" {
		return nil, errors.New("empty " + stagesHeader)
	}
	var out []stage
	for _, part := range strings.Split(v, ";") {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad %s entry %q", stagesHeader, part)
		}
		ns, err := strconv.ParseInt(val, 10, 64)
		if err != nil || ns < 0 {
			return nil, fmt.Errorf("bad %s duration %q", stagesHeader, part)
		}
		out = append(out, stage{name, ns})
	}
	return out, nil
}

// traceProxy is the bench-owned reverse proxy between the gateway and one
// replica in a traced run. It listens on the replica's pinned port, relays
// every request verbatim, and records one replica.attempt span — with the
// replica's stages as children — per predict that carries a trace ID.
type traceProxy struct {
	target string // the real replica's base URL
	rec    *recorder
	srv    *http.Server
	client *http.Client
	n      atomic.Int64 // attempts recorded, for span IDs
}

func startTraceProxy(addr, target string, rec *recorder) (*traceProxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &traceProxy{
		target: target,
		rec:    rec,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	p.srv = &http.Server{Handler: p}
	go p.srv.Serve(ln) // returns once stop closes the server
	return p, nil
}

func (p *traceProxy) stop() {
	p.srv.Close()
	p.client.CloseIdleConnections()
}

func (p *traceProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	traceID := r.Header.Get(traceHeader)
	record := traceID != "" && r.Method == http.MethodPost

	t0 := time.Now()
	resp, err := p.client.Do(req)
	var respBody []byte
	if err == nil {
		respBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	dur := time.Since(t0)
	if err != nil {
		// A hedge the gateway cancelled lands here; the span says so.
		if record {
			p.record(traceID, t0, dur, "error", "")
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	if record {
		p.record(traceID, t0, dur, strconv.Itoa(resp.StatusCode), resp.Header.Get(stagesHeader))
	}
}

func (p *traceProxy) record(traceID string, t0 time.Time, dur time.Duration, status, stages string) {
	id := fmt.Sprintf("%s.a%d@%s", traceID, p.n.Add(1), p.target[len("http://"):])
	att := span{
		Trace: traceID, ID: id, Parent: clientSpanID(traceID), Name: "replica.attempt",
		StartNs: p.rec.since(t0), DurNs: dur.Nanoseconds(),
		Attrs: map[string]string{"status": status, "backend": p.target},
	}
	spans := []span{att}
	if st, err := parseStages(stages); err == nil {
		// Stage durations are the replica's own; their offsets are laid end
		// to end from the attempt's start (the replica reports sums, not
		// timestamps).
		cursor := att.StartNs
		for _, s := range st {
			spans = append(spans, span{
				Trace: traceID, ID: id + "." + s.Name, Parent: id, Name: "stage." + s.Name,
				StartNs: cursor, DurNs: s.Ns,
			})
			cursor += s.Ns
		}
	} else if status == "200" {
		spans[0].Attrs["stages_error"] = err.Error()
	}
	p.rec.add(spans...)
}

func clientSpanID(traceID string) string { return traceID + ".c" }

// stageNames are the replica stages the per-layer metrics name.
var stageNames = []string{"queue", "batch_wait", "cache_lookup", "decode", "kernel"}

// traceMetrics derives the span-based per-layer metrics: the gateway hop
// (client span − winning attempt), the replica's stage split, its HTTP
// self time (attempt − Σ stages), and what the parts leave unaccounted.
func traceMetrics(spans []span, ms *metricSet) {
	attempts := map[string][]*span{} // by trace
	stages := map[string][]*span{}   // by attempt ID
	var clients []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "client.request":
			if s.Attrs["outcome"] == "ok" {
				clients = append(clients, s)
			}
		case s.Name == "replica.attempt":
			attempts[s.Trace] = append(attempts[s.Trace], s)
		case strings.HasPrefix(s.Name, "stage."):
			stages[s.Parent] = append(stages[s.Parent], s)
		}
	}
	const msPerNs = 1e-6
	var client, hop, self []float64
	byStage := map[string][]float64{}
	noStages := ""
	for _, c := range clients {
		// The winner is the successful attempt that finished first; a
		// hedge's loser is either cancelled (error) or finishes later.
		var win *span
		for _, a := range attempts[c.Trace] {
			if a.Attrs["status"] == "200" && (win == nil || a.StartNs+a.DurNs < win.StartNs+win.DurNs) {
				win = a
			}
		}
		if win == nil {
			continue
		}
		client = append(client, float64(c.DurNs)*msPerNs)
		hop = append(hop, float64(c.DurNs-win.DurNs)*msPerNs)
		if e := win.Attrs["stages_error"]; e != "" {
			noStages = e
			continue
		}
		sum := int64(0)
		for _, st := range stages[win.ID] {
			name := strings.TrimPrefix(st.Name, "stage.")
			byStage[name] = append(byStage[name], float64(st.DurNs)*msPerNs)
			sum += st.DurNs
		}
		self = append(self, float64(win.DurNs-sum)*msPerNs)
	}
	// One rule for every series: a median (and a p95 where a tail is
	// expected), or the reason there is none.
	record := func(name string, v []float64, tail bool, reason string) (p50 float64, ok bool) {
		if len(v) == 0 {
			ms.miss(name+"_p50_ms", reason)
			if tail {
				ms.miss(name+"_p95_ms", reason)
			}
			return 0, false
		}
		sort.Float64s(v)
		ms.set(name+"_p50_ms", quantile(v, 0.5))
		if tail {
			ms.set(name+"_p95_ms", quantile(v, 0.95))
		}
		return quantile(v, 0.5), true
	}
	why := noStages
	if len(client) == 0 {
		why = "no client span joined a successful replica.attempt span (is " + traceHeader + " still forwarded?)"
	}

	// Σ of the named parts' medians against the client's median: medians do
	// not add, so the remainder is reported, never hidden.
	parts, accounted := record("gateway.hop", hop, true, why)
	for _, st := range stageNames {
		reason := why
		if reason == "" {
			reason = "stage " + st + " absent from " + stagesHeader
		}
		p50, ok := record("serve."+st, byStage[st], st == "batch_wait" || st == "decode" || st == "kernel", reason)
		parts, accounted = parts+p50, accounted && ok
	}
	p50, ok := record("serve.http_self", self, false, why)
	parts, accounted = parts+p50, accounted && ok
	if !accounted {
		ms.miss("serve.unaccounted_share", "a named part is missing, so the remainder would be mislabelled")
		return
	}
	sort.Float64s(client)
	total := quantile(client, 0.5)
	ms.set("serve.unaccounted_share", (total-parts)/total)
}
