package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goodenough"
	"goodenough/internal/gateway"
	"goodenough/internal/governor"
	"goodenough/internal/obs"
	"goodenough/internal/server"
)

// serve-gateway: the benchmark's own load generator drives gateway.Handler,
// which forwards to two governed server.Handler replicas, all served over
// loopback in this process.
const (
	serveReplicas = 2
	// serveConns bounds both the load-generating goroutines and the
	// client's connections, so on a 2-CPU host the generator cannot crowd
	// out the tier it measures.
	serveConns = 2
	// serveOpenRate is the open-loop rate. On a shared 2-CPU host the closed
	// loop reached anywhere from 1,500 to 6,900 req/s as the host's speed
	// varied; at 1000 req/s its slow spells pushed the tier near saturation
	// and p50 rose fivefold. At 500 req/s it stays below a third of the
	// slowest capacity seen, so the latencies measure the tier, not a
	// backlog.
	serveOpenRate = 500
	// serveSimSec is each request's simulated horizon: ~15 jobs, so the
	// simulation takes about half of a request's latency.
	serveSimSec = 0.1
	// serveSetups is how many tiers are built to time set-up. Building one
	// takes well under a millisecond, and the first ten or so take two to
	// four times as long as the rest while the process warms up, so the
	// median needs many builds to sit clear of them.
	serveSetups = 101
	// serveWindow is the width of the closed-loop throughput windows.
	serveWindow = 0.5
)

// tier is one gateway in front of its replicas, each behind its own
// loopback listener.
type tier struct {
	servers  []*server.Server
	replicas []*httptest.Server
	gw       *gateway.Gateway
	front    *httptest.Server
	upstream *http.Transport
}

// newTier builds and starts a tier. run and wrap, when non-nil, decorate
// the replicas' simulation entry point and the gateway's upstream transport
// for the traced run.
func newTier(run server.RunFunc, wrap func(http.RoundTripper) http.RoundTripper) (*tier, error) {
	t := &tier{upstream: http.DefaultTransport.(*http.Transport).Clone()}
	workers := runtime.GOMAXPROCS(0)
	var urls []string
	for i := 0; i < serveReplicas; i++ {
		gov, err := governor.New(governor.Config{
			Budget:        float64(workers),
			NominalDemand: time.Millisecond,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		srv := server.New(server.Config{MaxConcurrent: workers, Governor: gov, Run: run})
		t.servers = append(t.servers, srv)
		hs := httptest.NewServer(srv.Handler())
		t.replicas = append(t.replicas, hs)
		urls = append(urls, hs.URL)
	}
	var rt http.RoundTripper = t.upstream
	if wrap != nil {
		rt = wrap(rt)
	}
	gw, err := gateway.New(gateway.Config{Replicas: urls, QualityAware: true, Transport: rt})
	if err != nil {
		t.close()
		return nil, err
	}
	gw.Start()
	t.gw = gw
	t.front = httptest.NewServer(gw.Handler())
	return t, nil
}

// close stops the tier's listeners, probe loops, governors and samplers.
func (t *tier) close() {
	if t.front != nil {
		t.front.Close()
	}
	if t.gw != nil {
		t.gw.Close()
	}
	for _, srv := range t.servers {
		_ = srv.Drain(context.Background()) // nothing is in flight
	}
	for _, hs := range t.replicas {
		hs.Close()
	}
	t.upstream.CloseIdleConnections()
}

// client is the load generator's HTTP side: at most serveConns connections
// to the gateway, one request body per id derived from the seed.
type client struct {
	hc       *http.Client
	url      string
	seedBase uint64
}

func newClient(url string, seed uint64) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &client{
		hc:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:      url + "/v1/run",
		seedBase: requestSeedBase(seed),
	}
}

// requestSeedBase derives the request seeds from the benchmark seed: request
// id i simulates seed base+i, through which the traced run maps a replica's
// run back to its request.
func requestSeedBase(seed uint64) uint64 { return splitmix64(seed) &^ 0xffffffff }

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the /v1/run response envelope.
type reply struct {
	Result goodenough.Result `json:"result"`
}

// do sends request id and checks the reply: status 200, a decodable
// result from the GE scheduler, every generated job finalized once, and no
// cancellation.
func (c *client) do(id int) (bool, int) {
	body := `{"Scheduler":"ge","DurationSec":` + strconv.FormatFloat(serveSimSec, 'g', -1, 64) +
		`,"Seed":` + strconv.FormatUint(c.seedBase+uint64(id), 10) + `}`
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(body))
	if err != nil {
		return false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	// The request id rides as the trace id, which the gateway forwards to
	// the replica; the traced transport reads it to attribute attempts.
	obs.SpanContext{Trace: uint64(id) + 1, Span: 1}.Inject(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, 0
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return false, 0
	}
	r := rep.Result
	// A horizon with no arrivals is a valid result (Jobs 0); an empty body
	// decoded into a zero Result is not, and names no scheduler.
	if r.Cancelled || r.Scheduler != "GE" || r.Completed+r.Expired+r.DroppedJobs != int64(r.Jobs) {
		return false, r.Jobs
	}
	return true, r.Jobs
}

// account adds a closed loop's requests to the outcome's attempted and
// failed counts.
func account(o *outcome, t *tally) {
	o.attempted += t.attempted
	o.failed += t.failed
}

// accountOpen adds an open loop's requests to the outcome's counts.
func accountOpen(o *outcome, samples []sample) {
	for _, s := range samples {
		o.attempted++
		if !s.ok {
			o.failed++
		}
	}
}

// latencies returns the open-loop latencies in ms. A failed request counts
// as slower than any latency the phase could measure.
func latencies(samples []sample, phase time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latency() * 1e3
		if !s.ok {
			out[i] = phase.Seconds()*1e3 + 1
		}
	}
	return out
}

// lateP99 is the 99th percentile of how late the generator sent requests,
// in ms.
func lateP99(samples []sample) float64 {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = s.late() * 1e3
	}
	return percentile(late, 0.99)
}

// warmup lets connections open and the governors learn the request cost
// before anything is timed.
func warmup(c *client, first int) *tally {
	return closedLoop(time.Now(), serveConns, 500*time.Millisecond, serveWindow, first, c.do)
}

// buildTiers builds serveSetups tiers, keeps the last, and returns the
// median build time.
func buildTiers(run server.RunFunc, wrap func(http.RoundTripper) http.RoundTripper) (*tier, float64, error) {
	var times []float64
	var t *tier
	for i := 0; i < serveSetups; i++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if t, err = newTier(run, wrap); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return t, median(times), nil
}

func runServeGateway(o *outcome, seed uint64, budget time.Duration, trace bool) error {
	if trace {
		return traceServeGateway(o, seed, budget)
	}
	t, setup, err := buildTiers(nil, nil)
	if err != nil {
		return err
	}
	defer t.close()
	c := newClient(t.front.URL, seed)
	defer c.close()

	account(o, warmup(c, 0))
	closedLen := budget / 2
	closed := closedLoop(time.Now(), serveConns, closedLen, serveWindow, 1<<20, c.do)
	account(o, closed)
	openLen := budget - closedLen
	open := openLoop(time.Now(), serveConns, serveOpenRate, openLen, 2<<20, c.do)
	accountOpen(o, open)

	okRate, jobRate := closed.rates()
	lat := latencies(open, openLen)
	o.metrics["ok_per_s"] = median(okRate)
	o.metrics["jobs_per_s"] = median(jobRate)
	o.metrics["latency_p50_ms"] = percentile(lat, 0.50)
	o.metrics["setup_s"] = setup
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	o.detail["closed_requests"] = closed.attempted
	o.detail["latency_samples"] = len(lat)
	o.detail["latency_p90_ms"] = percentile(lat, 0.90)
	o.detail["latency_p99_ms"] = percentile(lat, 0.99)
	o.detail["open_rate"] = serveOpenRate
	o.detail["loadgen_late_ms_p99"] = lateP99(open)
	return nil
}

// spanLog collects the traced tier's spans: replica runs keyed by request
// id, gateway upstream attempts keyed by request id.
type spanLog struct {
	epoch time.Time
	base  uint64

	mu       sync.Mutex
	runs     map[int][]interval
	attempts map[int][]interval
	replyB   []float64
}

func (l *spanLog) since() float64 { return time.Since(l.epoch).Seconds() }

// run wraps the replicas' simulation entry point.
func (l *spanLog) run(ctx context.Context, cfg goodenough.Config) (goodenough.Result, error) {
	start := l.since()
	res, err := goodenough.RunContext(ctx, cfg)
	end := l.since()
	l.mu.Lock()
	id := int(cfg.Seed - l.base)
	l.runs[id] = append(l.runs[id], interval{start, end})
	l.mu.Unlock()
	return res, err
}

// wrap decorates the gateway's upstream transport.
func (l *spanLog) wrap(rt http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		sc := obs.ParseSpanContext(r.Header)
		if r.Method != http.MethodPost || !sc.Valid() {
			return rt.RoundTrip(r) // a health probe, not a proxied request
		}
		id := int(sc.Trace) - 1
		start := l.since()
		resp, err := rt.RoundTrip(r)
		if err != nil {
			l.attempt(id, interval{start, l.since()}, -1)
			return resp, err
		}
		// The attempt ends when the gateway has read and closed the body.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
			l.attempt(id, interval{start, l.since()}, n)
		}}
		return resp, nil
	})
}

func (l *spanLog) attempt(id int, iv interval, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts[id] = append(l.attempts[id], iv)
	if bytes >= 0 {
		l.replyB = append(l.replyB, float64(bytes))
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody counts a response body's bytes and reports them once, on Close.
type timedBody struct {
	io.ReadCloser
	n    atomic.Int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n.Load()) })
	return err
}

// traceServeGateway measures an untraced closed loop as the overhead base
// and for the Go-runtime figures, then a traced tier's closed loop and its
// open loop at the benchmark rate, from which the self times come.
func traceServeGateway(o *outcome, seed uint64, budget time.Duration) error {
	phase := budget / 4

	plain, _, err := buildTiers(nil, nil)
	if err != nil {
		return err
	}
	pc := newClient(plain.front.URL, seed)
	account(o, warmup(pc, 0))
	g0 := readGo()
	plainClosed := closedLoop(time.Now(), serveConns, phase, serveWindow, 1<<20, pc.do)
	g1 := readGo()
	account(o, plainClosed)
	pc.close()
	plain.close()

	l := &spanLog{epoch: time.Now(), base: requestSeedBase(seed),
		runs: map[int][]interval{}, attempts: map[int][]interval{}}
	t, _, err := buildTiers(l.run, l.wrap)
	if err != nil {
		return err
	}
	defer t.close()
	c := newClient(t.front.URL, seed)
	defer c.close()
	account(o, warmup(c, 0))
	tracedClosed := closedLoop(time.Now(), serveConns, phase, serveWindow, 1<<20, c.do)
	account(o, tracedClosed)
	l.mu.Lock()
	clear(l.runs)
	clear(l.attempts)
	l.replyB = l.replyB[:0]
	l.mu.Unlock()
	openLen := budget - 2*phase
	openStart := time.Now()
	open := openLoop(openStart, serveConns, serveOpenRate, openLen, 2<<20, c.do)
	accountOpen(o, open)
	late := lateP99(open)
	// Put the client's samples on the span log's clock.
	shift := openStart.Sub(l.epoch).Seconds()
	for i := range open {
		open[i].sent += shift
		open[i].end += shift
	}

	goMetrics(o.metrics, g1.sub(g0), float64(plainClosed.attempted))
	plainRate := float64(plainClosed.attempted) / phase.Seconds()
	tracedRate := float64(tracedClosed.attempted) / phase.Seconds()
	o.metrics["trace.overhead_share"] = ratio(plainRate, tracedRate) - 1

	l.mu.Lock()
	defer l.mu.Unlock()
	var gwSelf, srvSelf, runMS []float64
	attempts := 0
	for _, s := range open {
		atts := l.attempts[s.id]
		attempts += len(atts)
		if !s.ok {
			continue
		}
		gwSelf = append(gwSelf, selfTime(interval{s.sent, s.end}, atts)*1e3)
		runs := l.runs[s.id]
		for _, a := range atts {
			srvSelf = append(srvSelf, selfTime(a, runs)*1e3)
		}
		for _, r := range runs {
			runMS = append(runMS, r.dur()*1e3)
		}
	}
	o.metrics["gateway.self_ms_p50"] = percentile(gwSelf, 0.50)
	o.metrics["gateway.self_ms_p99"] = percentile(gwSelf, 0.99)
	o.metrics["gateway.attempts_per_request"] = ratio(float64(attempts), float64(len(open)))
	o.metrics["server.self_ms_p50"] = percentile(srvSelf, 0.50)
	o.metrics["server.self_ms_p99"] = percentile(srvSelf, 0.99)
	o.metrics["server.run_ms_p50"] = percentile(runMS, 0.50)
	o.metrics["server.run_ms_p99"] = percentile(runMS, 0.99)
	o.metrics["server.reply_bytes_mean"] = mean(l.replyB)
	o.metrics["loadgen.late_ms_p99"] = late

	gw, err := scrape(t.front.URL)
	if err != nil {
		return err
	}
	o.metrics["gateway.hedge_share"] = ratio(gw["hedges_fired_total"], gw["gw_requests_total"])
	var requests, shed, cuts, admitted float64
	for _, hs := range t.replicas {
		m, err := scrape(hs.URL)
		if err != nil {
			return err
		}
		requests += m["requests_total"]
		shed += m["shed_total"] + m["brownout_shed_total"]
		cuts += m["governor_cut_total"]
		admitted += m["admitted_total"]
	}
	o.metrics["server.shed_share"] = ratio(shed, requests)
	o.metrics["governor.cut_share"] = ratio(cuts, admitted)
	o.detail["latency_samples"] = len(open)
	o.detail["self_time_samples"] = len(gwSelf)
	return nil
}

// scrape reads the counters and gauges of a /metricz endpoint.
func scrape(base string) (map[string]float64, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(base + "/metricz")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	return parseProm(raw), nil
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(raw []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil && !math.IsNaN(v) {
			out[name] = v
		}
	}
	return out
}
