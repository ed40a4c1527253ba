package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// outcome classes of one request.
const (
	okReq = iota
	shed429
	timeout504
	server5xx
	transportErr
	otherStatus
)

// loadgen is the single load-generating client. It multiplexes requests
// over one cleartext HTTP/2 connection per CPU, round-robin, and gives
// every request its own seed, so no response can be reused.
type loadgen struct {
	url      string
	clients  []*http.Client
	inputs   [][]byte // pre-encoded JSON input arrays, cycled by index
	outLen   int
	seedBase uint64
	next     atomic.Int64 // run-wide request index
	inflight atomic.Int64

	// verifyEvery selects the requests whose outputs are kept for the
	// bit check: those with index divisible by it.
	verifyEvery int64
	mu          sync.Mutex
	kept        []keptOutput
	// onResult, when set, sees every completed request (tracing).
	onResult func(idx int64, start, end time.Time, res *serve.PredictResponse)
}

// keptOutput is one served response retained for verification.
type keptOutput struct {
	Phase  string
	Idx    int64
	Input  int
	Seed   uint64
	Output []float32
}

func newLoadgen(front, model string, inputs [][]float32, outLen int, seedBase uint64) *loadgen {
	g := &loadgen{
		url:         front + "/v1/models/" + model + "/predict",
		outLen:      outLen,
		seedBase:    seedBase,
		verifyEvery: 97,
	}
	for range runtime.NumCPU() {
		tr := &http.Transport{Protocols: new(http.Protocols), MaxConnsPerHost: 1}
		tr.Protocols.SetUnencryptedHTTP2(true)
		g.clients = append(g.clients, &http.Client{Transport: tr, Timeout: 60 * time.Second})
	}
	for _, in := range inputs {
		b, _ := json.Marshal(in) // []float32 always marshals
		g.inputs = append(g.inputs, b)
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// seedOf is request idx's seed.
func (g *loadgen) seedOf(idx int64) uint64 { return g.seedBase + uint64(idx) }

// inputOf is request idx's input index.
func (g *loadgen) inputOf(idx int64) int { return int(idx % int64(len(g.inputs))) }

// result is one completed request as the generator saw it.
type result struct {
	class int
	start time.Time // when the request was handed to the transport
	end   time.Time
}

// do sends request idx and classifies the reply.
func (g *loadgen) do(phase string, idx int64) result {
	body := make([]byte, 0, len(g.inputs[0])+48)
	body = append(body, `{"seed":`...)
	body = strconv.AppendUint(body, g.seedOf(idx), 10)
	body = append(body, `,"input":`...)
	body = append(body, g.inputs[g.inputOf(idx)]...)
	body = append(body, '}')
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return result{class: transportErr, start: time.Now(), end: time.Now()}
	}
	req.Header.Set("Content-Type", "application/json")
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	r := result{start: time.Now()}
	resp, err := g.clients[int(idx)%len(g.clients)].Do(req)
	if err != nil {
		r.class, r.end = transportErr, time.Now()
		return r
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	r.end = time.Now()
	switch {
	case err != nil:
		r.class = transportErr
	case resp.StatusCode == http.StatusOK:
		var pr serve.PredictResponse
		if json.Unmarshal(data, &pr) != nil || len(pr.Output) != g.outLen {
			r.class = transportErr
			break
		}
		if g.onResult != nil {
			g.onResult(idx, r.start, r.end, &pr)
		}
		if idx%g.verifyEvery == 0 {
			g.mu.Lock()
			g.kept = append(g.kept, keptOutput{Phase: phase, Idx: idx, Input: g.inputOf(idx), Seed: g.seedOf(idx), Output: pr.Output})
			g.mu.Unlock()
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		r.class = shed429
	case resp.StatusCode == http.StatusGatewayTimeout:
		r.class = timeout504
	case resp.StatusCode >= 500:
		r.class = server5xx
	default:
		r.class = otherStatus
	}
	return r
}

// phase is the accounting of one load phase.
type phase struct {
	Name     string    `json:"name"`
	Mode     string    `json:"mode"` // closed or open
	Rate     float64   `json:"rate,omitempty"`
	Rates    []float64 `json:"rates,omitempty"` // per round, when merged
	InFlight int       `json:"in_flight,omitempty"`
	Seconds  float64   `json:"seconds"`
	Sent     int       `json:"sent"`
	OK       int       `json:"ok"`
	Shed429  int       `json:"shed_429"`
	Timeout  int       `json:"timeout_504"`
	Server5x int       `json:"server_5xx"`
	Trans    int       `json:"transport"`
	Other    int       `json:"other_status"`
	Mismatch int       `json:"mismatch"`
	P50Ms    float64   `json:"p50_ms"`
	P99Ms    float64   `json:"p99_ms"`
	LagP99Ms float64   `json:"gen_lag_p99_ms,omitempty"`
	QPS      float64   `json:"ok_per_s"`
	// Admission is the standalone server's own count, from /v1/stats, of
	// requests it shed or let expire during a traced phase.
	Admission *admission `json:"server_admission,omitempty"`

	lats     []float64 // ms, successful requests only
	lagMs    []float64
	inflight []int // open loop: in-flight samples every sampleEvery
	queue    []int // open loop: server queue depth samples
}

// admission holds a scheduler's shed and expired counts over a phase.
type admission struct {
	Shed    uint64 `json:"shed"`
	Expired uint64 `json:"expired"`
}

// failed counts every request that did not return a verified answer.
func (p *phase) failed() int {
	return p.Sent - p.OK + p.Mismatch
}

func (p *phase) add(r result, latFrom time.Time) {
	p.Sent++
	switch r.class {
	case okReq:
		p.OK++
		p.lats = append(p.lats, float64(r.end.Sub(latFrom))/1e6)
	case shed429:
		p.Shed429++
	case timeout504:
		p.Timeout++
	case server5xx:
		p.Server5x++
	case transportErr:
		p.Trans++
	default:
		p.Other++
	}
}

func (p *phase) finish(elapsed time.Duration) {
	p.Seconds = elapsed.Seconds()
	p.QPS = float64(p.OK) / p.Seconds
	if len(p.lats) > 0 {
		p.P50Ms = percentile(p.lats, 0.50)
		p.P99Ms = percentile(p.lats, 0.99)
	}
	if len(p.lagMs) > 0 {
		p.LagP99Ms = percentile(p.lagMs, 0.99)
	}
}

// merge pools sub-phases run at different times into one phase.
func merge(name string, parts []*phase) *phase {
	p := &phase{Name: name, Mode: parts[0].Mode, InFlight: parts[0].InFlight}
	var secs float64
	for _, q := range parts {
		p.Rates = append(p.Rates, q.Rate)
		secs += q.Seconds
		p.Sent += q.Sent
		p.OK += q.OK
		p.Shed429 += q.Shed429
		p.Timeout += q.Timeout
		p.Server5x += q.Server5x
		p.Trans += q.Trans
		p.Other += q.Other
		p.lats = append(p.lats, q.lats...)
		p.lagMs = append(p.lagMs, q.lagMs...)
	}
	p.finish(time.Duration(secs * float64(time.Second)))
	return p
}

// closedLoop keeps n requests in flight for d: each of n callers sends its
// next request as soon as the previous one completes. Latency runs from
// send to reply.
func (g *loadgen) closedLoop(name string, n int, d time.Duration) *phase {
	p := &phase{Name: name, Mode: "closed", InFlight: n}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := g.do(name, g.next.Add(1)-1)
				mu.Lock()
				p.add(r, r.start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.finish(time.Since(start))
	return p
}

// sampleEvery is the backlog sampling period of open-loop phases.
const sampleEvery = 50 * time.Millisecond

// openLoop sends requests on a fixed schedule, rate per second for d,
// regardless of replies. Each request's latency runs from when it was
// due, so a stall also charges the requests queued behind it; the lag
// between due and actual send is the generator's own lateness. queueDepth,
// when non-nil, is polled alongside the in-flight count for backlog.
func (g *loadgen) openLoop(name string, rate float64, d time.Duration, queueDepth func() int) *phase {
	p := &phase{Name: name, Mode: "open", Rate: rate}
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopSampling:
				return
			case <-t.C:
			}
			mu.Lock()
			p.inflight = append(p.inflight, int(g.inflight.Load()))
			mu.Unlock()
			if queueDepth != nil && i%4 == 0 {
				q := queueDepth()
				mu.Lock()
				p.queue = append(p.queue, q)
				mu.Unlock()
			}
		}
	}()
	period := time.Duration(float64(time.Second) / rate)
	total := int(float64(d) / float64(period))
	start := time.Now()
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(k) * period)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		idx := g.next.Add(1) - 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := g.do(name, idx)
			mu.Lock()
			p.lagMs = append(p.lagMs, float64(r.start.Sub(due))/1e6)
			p.add(r, due)
			mu.Unlock()
		}()
	}
	sendEnd := time.Now()
	close(stopSampling)
	samplerWG.Wait()
	wg.Wait()
	p.finish(sendEnd.Sub(start))
	return p
}
