package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hawccc/internal/dataset"
	"hawccc/internal/fleet"
	"hawccc/internal/wire"
)

// The load generator: the LiDAR frame sources, the synthetic fleet and
// the dashboard client. Together they hold at most nproc TCP connections
// and start at most nproc goroutines that issue work; a frame source
// starts none, because the pole's own capture goroutine calls it.

// schedule is the run's plan, fixed once the run starts. Everything a
// source reads from it is written before start is closed.
type schedule struct {
	start chan struct{}
	stop  chan struct{} // closed to abandon the run early
	t0    time.Time     // run start
	end   time.Time     // run end
	// bursts are the pole saturation bursts; the first ramp of each is
	// not measured. quiet is the run without the bursts and the guard time
	// after each.
	bursts []window
	ramp   time.Duration
	quiet  []window
}

func newSchedule() *schedule {
	return &schedule{start: make(chan struct{}), stop: make(chan struct{})}
}

// begin fixes the run's times and releases every waiting source.
func (s *schedule) begin(wl workload, total time.Duration) {
	s.t0 = time.Now()
	s.end = s.t0.Add(total)
	s.bursts = wl.bursts(s.t0, total)
	_, _, guard, ramp := wl.burstPlan(total)
	s.ramp = ramp
	from := s.t0.UnixNano()
	for _, b := range s.bursts {
		if b.from > from {
			s.quiet = append(s.quiet, window{from: from, to: b.from})
		}
		from = b.to + int64(guard)
	}
	if end := s.end.UnixNano(); end > from {
		s.quiet = append(s.quiet, window{from: from, to: end})
	}
	close(s.start)
}

// isQuiet reports whether t (unix ns) lies in the run outside the bursts
// and their guard times: the time latency is measured over.
func (s *schedule) isQuiet(t int64) bool {
	for _, w := range s.quiet {
		if w.holds(t) {
			return true
		}
	}
	return false
}

// quietSeconds is the length of the quiet time.
func (s *schedule) quietSeconds() float64 {
	var ns int64
	for _, w := range s.quiet {
		ns += w.to - w.from
	}
	return float64(ns) / 1e9
}

// sleepUntil waits for t; it reports false when the run is abandoned.
func (s *schedule) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.stop:
		return false
	}
}

// frameSource is a pole.FrameSource that plays a pole's seeded frame pool
// on the benchmark schedule: primeFrames at once, then one frame per
// 1/rate from the run start, except that within a pole burst it
// returns a frame whenever the pole's capture loop asks for one; paced
// slots that fall in a burst are skipped.
//
// A frame is due when the schedule says so, whether or not the pole is
// ready for it; a stalled pole pulls late frames back to back, and the
// wait shows in capture-to-visible latency. Only the pole's capture
// goroutine calls NextFrame; the recorded fields are read after the
// pole's Run has returned.
type frameSource struct {
	pool   []dataset.Frame
	sched  *schedule
	rate   float64
	offset time.Duration // this pole's phase within the frame period
	slot   int           // next paced slot

	n       int     // frames returned, priming included
	due     []int64 // unix ns each returned frame was due
	offered []int64 // unix ns each was handed to the pole
	burst   []bool  // whether each was a burst frame
}

// newFrameSource plays pool for pole k of n; the poles' frame clocks are
// spread evenly over one frame period, as independent sensors would be.
func newFrameSource(pool []dataset.Frame, sched *schedule, rate float64, k, n int) *frameSource {
	offset := time.Duration(float64(time.Second) / rate * float64(k) / float64(n))
	return &frameSource{pool: pool, sched: sched, rate: rate, offset: offset}
}

// slotDue is the due time of paced slot j.
func (s *frameSource) slotDue(j int) time.Time {
	return s.sched.t0.Add(s.offset + time.Duration(float64(j)/s.rate*float64(time.Second)))
}

// NextFrame implements pole.FrameSource.
func (s *frameSource) NextFrame() (dataset.Frame, error) {
	i := s.n
	due := time.Now()
	burst := false
	if i >= primeFrames {
		select {
		case <-s.sched.start:
		case <-s.sched.stop:
			return dataset.Frame{}, io.EOF
		}
		for {
			due = s.slotDue(s.slot)
			if !due.Before(s.sched.end) {
				return dataset.Frame{}, io.EOF
			}
			b, in := s.burstAt(due.UnixNano())
			if !in {
				if !s.sched.sleepUntil(due) {
					return dataset.Frame{}, io.EOF
				}
				s.slot++
				break
			}
			if !s.sched.sleepUntil(time.Unix(0, b.from)) {
				return dataset.Frame{}, io.EOF
			}
			if now := time.Now(); now.UnixNano() < b.to {
				due, burst = now, true
				break
			}
			// The burst is over: resume at the first slot after it.
			s.slot = int(math.Ceil(float64(b.to-s.sched.t0.UnixNano()-int64(s.offset)) * s.rate / 1e9))
		}
	}
	s.due = append(s.due, due.UnixNano())
	s.offered = append(s.offered, time.Now().UnixNano())
	s.burst = append(s.burst, burst)
	s.n++
	return s.pool[i%len(s.pool)], nil
}

// burstAt returns the pole burst holding t (unix ns), if any.
func (s *frameSource) burstAt(t int64) (window, bool) {
	for _, b := range s.sched.bursts {
		if b.holds(t) {
			return b, true
		}
	}
	return window{}, false
}

// isPaced reports whether frame i was offered on the paced schedule in
// quiet time: a frame whose latency counts.
func (s *frameSource) isPaced(i int) bool {
	return i >= primeFrames && i < s.n && !s.burst[i] && s.sched.isQuiet(s.due[i])
}

// pacedConfig is one open-loop synthetic fleet sender.
type pacedConfig struct {
	addr       string
	ids        []uint32
	rate       float64 // reports/s over all ids
	start, end time.Time
	seed       int64
	// keepBodies retains every encoded report (traced runs decode them).
	keepBodies bool
	// acks, when set, counts acks as they arrive (the throughput sampler).
	acks *atomic.Int64
	// stallAt/stallFor inject one sender stall before report stallAt
	// (tests use it to show latency is timed from the due time).
	stallAt  int
	stallFor time.Duration
}

// pacedResult is what the sender saw, one entry per scheduled report.
type pacedResult struct {
	due, sent, acked []int64 // unix ns; acked 0 = never acknowledged
	bodies           [][]byte
	err              error
}

// ackedCount returns how many reports were acknowledged.
func (r *pacedResult) ackedCount() int {
	n := 0
	for _, a := range r.acked {
		if a != 0 {
			n++
		}
	}
	return n
}

// ackTimeout bounds the wait for outstanding acks after the last send.
const ackTimeout = 15 * time.Second

// runPaced sends the fleet's count reports open loop: each is due at its
// arrival time and goes out as soon as the sender reaches it, with
// everything already due written back to back. Latency is timed from
// the due time, so a stall in the sender delays every report behind it
// and shows. One connection; a reader collects acks and alerts.
func runPaced(sched *schedule, cfg pacedConfig) *pacedResult {
	// Reports arrive as a seeded Poisson process: the fleet's poles report
	// on clocks of their own, and no due time keeps a fixed phase to the
	// probe clock or the snapshot tick that would differ from run to run.
	// (With reports due on a fixed 1 ms grid, the pole-stream probes' p99
	// fell into two groups over ten runs, likely by that phase.)
	rng := rand.New(rand.NewSource(cfg.seed))
	var due []int64
	for t, end := float64(cfg.start.UnixNano()), float64(cfg.end.UnixNano()); ; {
		t += rng.ExpFloat64() / cfg.rate * 1e9
		if t >= end {
			break
		}
		due = append(due, int64(t))
	}
	n := len(due)
	res := &pacedResult{due: due, sent: make([]int64, n), acked: make([]int64, n)}
	if cfg.keepBodies {
		res.bodies = make([][]byte, n)
	}
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		res.err = fmt.Errorf("paced sender: %w", err)
		return res
	}
	defer conn.Close()

	readerDone := make(chan error, 1)
	go func() { readerDone <- readAcks(conn, res, cfg.acks) }()

	bw := bufio.NewWriterSize(conn, 32<<10)
	var werr error
	for i := 0; i < n && werr == nil; i++ {
		due := res.due[i]
		if i == cfg.stallAt && cfg.stallFor > 0 {
			werr = bw.Flush()
			sched.sleepUntil(time.Now().Add(cfg.stallFor))
		}
		if now := time.Now().UnixNano(); now < due {
			if werr = bw.Flush(); werr != nil {
				break
			}
			if !sched.sleepUntil(time.Unix(0, due)) {
				werr = errors.New("paced sender: run abandoned")
				break
			}
		}
		id := cfg.ids[i%len(cfg.ids)]
		body := wire.EncodeCountReport(wire.CountReport{
			PoleID:    id,
			Seq:       uint64(i + 1),
			Timestamp: time.Unix(0, due).UTC(),
			Count:     uint32(rng.Intn(9)),
			Clusters:  uint32(1 + rng.Intn(4)),
			LatencyUS: 1000,
		})
		if cfg.keepBodies {
			res.bodies[i] = body
		}
		res.sent[i] = time.Now().UnixNano()
		werr = wire.WriteFrame(bw, wire.MsgCountReport, body)
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		res.err = fmt.Errorf("paced sender: %w", werr)
		conn.Close()
		<-readerDone
		return res
	}
	select {
	case rerr := <-readerDone:
		if rerr != nil {
			res.err = fmt.Errorf("paced sender: %w", rerr)
		}
	case <-time.After(ackTimeout):
		conn.Close()
		<-readerDone
		res.err = errors.New("paced sender: acks still outstanding after the timeout")
	}
	return res
}

// readAcks records each ack's arrival until every scheduled report is
// acknowledged or the connection fails.
func readAcks(conn net.Conn, res *pacedResult, acks *atomic.Int64) error {
	br := bufio.NewReaderSize(conn, 32<<10)
	for got := 0; got < len(res.acked); {
		t, body, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		switch t {
		case wire.MsgAck:
			ack, err := wire.DecodeAck(body)
			if err != nil {
				return err
			}
			if ack.Seq == 0 || ack.Seq > uint64(len(res.acked)) || res.acked[ack.Seq-1] != 0 {
				return fmt.Errorf("ack for unexpected seq %d", ack.Seq)
			}
			res.acked[ack.Seq-1] = time.Now().UnixNano()
			if acks != nil {
				acks.Add(1)
			}
			got++
		case wire.MsgAlert:
			if _, err := wire.DecodeAlert(body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected message type %d", t)
		}
	}
	return nil
}

// probe is one visibility poll of /api/zones.
type probe struct {
	recv  int64 // unix ns the response was read
	span  uint64
	seq   uint64           // snapshot_seq it was served from
	zones map[string]int64 // reports per zone
}

// query is one dashboard request: when it was issued and how long it took.
type query struct {
	at int64 // unix ns
	ms float64
}

// dashConfig is the dashboard client's plan.
type dashConfig struct {
	base       string        // http://host:port
	stop       chan struct{} // closed when the client should stop
	mix        bool
	pollPeriod time.Duration
	seed       int64
	fleetPoles int
	fleetZones int
}

// dashResult is what the dashboard client saw.
type dashResult struct {
	probes   []probe
	queries  []query
	failed   int
	problems []string // failed correctness checks, capped
}

func (d *dashResult) problem(format string, args ...any) {
	if len(d.problems) < 8 {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
}

// spanHeader carries the client's request id, so a traced server can
// join its serve span to the request that caused it.
const spanHeader = "X-Bench-Span"

// runDashboard is the single dashboard client: it probes /api/zones every
// cfg.pollPeriod (the capture-to-visible clock), scrapes /metrics every
// scrapePeriod and, with a mix, issues the seeded endpoint mix closed
// loop in between. One goroutine, one keep-alive connection.
func runDashboard(cfg dashConfig) *dashResult {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(cfg.seed))
	res := &dashResult{}
	etags := make(map[string]string)
	nextProbe := time.Now()
	nextScrape := nextProbe.Add(scrapePeriod / 2)
	var span uint64
	for {
		select {
		case <-cfg.stop:
			return res
		default:
		}
		now := time.Now()
		switch {
		case !now.Before(nextProbe):
			span++
			body, ok := res.get(client, cfg.base+"/api/zones", "", span, etags)
			if ok {
				res.addProbe(body, span)
			}
			nextProbe = nextProbe.Add(cfg.pollPeriod)
			if nextProbe.Before(now) {
				nextProbe = now.Add(cfg.pollPeriod)
			}
		case !now.Before(nextScrape):
			span++
			res.get(client, cfg.base+"/metrics", "", span, etags)
			nextScrape = nextScrape.Add(scrapePeriod)
		case cfg.mix:
			span++
			path, inm := pickQuery(rng, cfg, etags)
			res.get(client, cfg.base+path, inm, span, etags)
		default:
			wake := nextProbe
			if nextScrape.Before(wake) {
				wake = nextScrape
			}
			timer := time.NewTimer(time.Until(wake))
			select {
			case <-timer.C:
			case <-cfg.stop:
				timer.Stop()
			}
		}
	}
}

// get issues one request and checks its answer: a 200 body must parse
// (JSON for the API, exposition text for /metrics) and a 304 must answer
// the validator sent, which is always an ETag an earlier 200 returned.
func (d *dashResult) get(client *http.Client, url, inm string, span uint64, etags map[string]string) ([]byte, bool) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		d.failed++
		d.problem("build request %s: %v", url, err)
		return nil, false
	}
	req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	path := req.URL.Path
	if err != nil {
		d.failed++
		d.queries = append(d.queries, query{at: t0.UnixNano(), ms: ms})
		d.problem("GET %s: %v", url, err)
		return nil, false
	}
	d.queries = append(d.queries, query{at: t0.UnixNano(), ms: ms})
	switch resp.StatusCode {
	case http.StatusOK:
		if path == "/metrics" {
			if !bytes.HasPrefix(body, []byte("# HELP ")) {
				d.failed++
				d.problem("GET %s: body is not Prometheus exposition text", url)
				return nil, false
			}
		} else if !json.Valid(body) {
			d.failed++
			d.problem("GET %s: 200 body is not JSON", url)
			return nil, false
		}
		if et := resp.Header.Get("Etag"); et != "" {
			etags[url] = et
		}
		return body, true
	case http.StatusNotModified:
		if inm == "" || resp.Header.Get("Etag") != inm {
			d.failed++
			d.problem("GET %s: 304 without a matching validator (sent %q, got %q)", url, inm, resp.Header.Get("Etag"))
			return nil, false
		}
		return nil, true
	default:
		d.failed++
		d.problem("GET %s: status %d", url, resp.StatusCode)
		return nil, false
	}
}

// addProbe records a /api/zones answer for the visibility clock.
func (d *dashResult) addProbe(body []byte, span uint64) {
	var z struct {
		Seq   uint64 `json:"snapshot_seq"`
		Zones []struct {
			Zone    string `json:"zone"`
			Reports int64  `json:"reports"`
		} `json:"zones"`
	}
	recv := time.Now().UnixNano()
	if err := json.Unmarshal(body, &z); err != nil {
		d.failed++
		d.problem("probe: %v", err)
		return
	}
	p := probe{recv: recv, span: span, seq: z.Seq, zones: make(map[string]int64, len(z.Zones))}
	for _, zs := range z.Zones {
		p.zones[zs.Zone] = zs.Reports
	}
	d.probes = append(d.probes, p)
}

// The dashboard mix is an assumption inherited from the repository, not
// an observation: no dashboard traffic has been measured. historyPercent
// is the history share of HistoryBench's replay and conditionalPercent
// the revalidation share of ApiBench (both 50); the rest follows
// fleet.pickEndpoint, see pickQuery.
const (
	historyPercent     = 50
	conditionalPercent = 50
)

// pickQuery draws the next request of the dashboard mix the way
// fleet.pickEndpoint and fleet's query loop do: historyPercent of requests
// read /api/history for a random pole over fleet.DefaultHistoryWindow, raw
// or downsampled to window/60 buckets with equal odds; the rest take
// fleet.pickEndpoint's shares (campus rollups 40, top 20, one pole 20, one
// zone 15, the full /api/poles listing 5), with the endpoints it lacks
// taking half of their nearest kin's share: /api/zones half of the campus
// rollups, /api/top?k=50 half of top. conditionalPercent of the non-history
// requests revalidate with the last ETag seen for the URL, when there is
// one.
func pickQuery(rng *rand.Rand, cfg dashConfig, etags map[string]string) (path, inm string) {
	pole := strconv.Itoa(1 + rng.Intn(cfg.fleetPoles))
	if rng.Intn(100) < historyPercent {
		res := "raw"
		if rng.Intn(2) == 0 {
			res = (fleet.DefaultHistoryWindow / 60).String()
		}
		return "/api/history?pole=" + pole + "&series=count&window=" + fleet.DefaultHistoryWindow.String() + "&res=" + res, ""
	}
	switch p := rng.Intn(100); {
	case p < 20:
		path = "/api/campus"
	case p < 40:
		path = "/api/zones"
	case p < 50:
		path = "/api/top?k=10"
	case p < 60:
		path = "/api/top?k=50"
	case p < 80:
		path = "/api/poles/" + pole
	case p < 95:
		path = "/api/zones/zone-" + strconv.Itoa(rng.Intn(cfg.fleetZones))
	default:
		path = "/api/poles"
	}
	if rng.Intn(100) < conditionalPercent {
		inm = etags[cfg.base+path]
	}
	return path, inm
}
