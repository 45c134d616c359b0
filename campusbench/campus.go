package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/fleet"
	"hawccc/internal/models"
	"hawccc/internal/obs"
	"hawccc/internal/pole"
	"hawccc/internal/telemetry"
	"hawccc/internal/tsdb"
)

// poleRunner is what the campus needs from a LiDAR pole: pole.Node in
// the measured run, tracedPole in the traced one.
type poleRunner interface {
	Run(ctx context.Context) (int, error)
	Acked() uint64
	Offload() *counting.OffloadController
}

// lidarPole is one real counting pipeline on the campus.
type lidarPole struct {
	id   uint32
	pool []dataset.Frame
	src  *frameSource
	run  poleRunner

	// Filled by drive.
	processed    int
	err          error
	ackedFinal   uint64
	remote       uint64    // offload decisions: classified by the backend
	fallback     uint64    // remote attempts that fell back to the pole
	historyCount []float64 // the backend's per-report count history
}

// campus is the system under test as cmd/polesim wires it: one
// backend.Server with Obs, in-memory history, the offload classifier,
// alert limits and the query API, plus two pole pipelines.
type campus struct {
	wl    workload
	o     options
	rec   *recorder // nil in the measured run
	clf   *models.HAWC
	reg   *obs.Registry
	srv   *backend.Server
	base  string // http://host:port serving /api/ and /metrics
	sched *schedule
	poles []*lidarPole

	closeHTTP  func() error
	httpWG     sync.WaitGroup
	stopDuties func()
}

// lidarZone is the zone of a LiDAR pole: one zone each, so the zone
// rollup on /api/zones is the pole's own report count.
func lidarZone(id uint32) string { return "lidar-" + strconv.FormatUint(uint64(id), 10) }

// setUp trains the classifier, generates the inputs, starts the backend
// and its HTTP listener, and dials the poles: everything before the
// first frame or report is offered.
func setUp(wl workload, o options, rec *recorder) (*campus, error) {
	c := &campus{wl: wl, o: o, rec: rec, sched: newSchedule()}
	c.clf = models.NewHAWC()
	if err := c.clf.Train(dataset.NewGenerator(trainSeed).Classification(o.trainPerClass),
		models.TrainConfig{Epochs: o.trainEpochs, Seed: trainSeed}); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	pools := generatePools(o)

	c.reg = obs.NewRegistry()
	cfg := backend.Config{
		Addr:          "127.0.0.1:0",
		CrowdingLimit: crowdingLimit,
		OverheatLimit: overheatLimit,
		History:       &tsdb.Config{},
		Classifier:    c.clf,
		Obs:           c.reg,
	}
	if rec != nil {
		cfg.SnapshotInterval = -1
		cfg.HistorySampleInterval = -1
	}
	srv, err := backend.Listen(cfg)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	if err := c.serveHTTP(); err != nil {
		srv.Close()
		return nil, err
	}
	if rec != nil {
		c.stopDuties = startDuties(srv, rec)
	}

	version := c.clf.ModelVersion()
	readings := telemetry.Simulate(telemetry.SummerConfig())
	for k := 0; k < lidarPoles; k++ {
		id := uint32(wl.fleetPoles + k + 1)
		lp := &lidarPole{id: id, pool: pools[k]}
		lp.src = newFrameSource(lp.pool, c.sched, wl.poleRate, k, lidarPoles)
		loc := fmt.Sprintf("walkway-%d", id)
		if rec == nil {
			node, err := pole.Dial(pole.Config{
				PoleID:        id,
				Location:      loc,
				Zone:          lidarZone(id),
				BackendAddr:   srv.Addr(),
				Pipeline:      counting.New(c.clf).Instrument(c.reg),
				Source:        lp.src,
				Telemetry:     readings[400*(k+1):],
				Offload:       counting.OffloadConfig{Mode: wl.offload},
				ModelVersion:  version,
				MaxReconnects: 3,
				Obs:           c.reg,
			})
			if err != nil {
				c.close()
				return nil, err
			}
			lp.run = node
		} else {
			tp := &tracedPole{
				id: id, loc: loc, zone: lidarZone(id), src: lp.src,
				pipe:     counting.New(c.clf).Instrument(c.reg),
				readings: readings[400*(k+1):], rec: rec,
			}
			if err := dialTraced(srv.Addr(), tp, wl.offload, version); err != nil {
				c.close()
				return nil, err
			}
			lp.run = tp
		}
		c.poles = append(c.poles, lp)
	}
	return c, nil
}

// generatePools draws each LiDAR pole's seeded frame pool, one goroutine
// per pole. A pool is stratified by crowd size: equal numbers of frames
// with 1 … maxPeople pedestrians (plus two objects each), interleaved,
// so the seed moves where people stand but not how much work a pool
// holds.
func generatePools(o options) [][]dataset.Frame {
	pools := make([][]dataset.Frame, lidarPoles)
	var wg sync.WaitGroup
	for k := range pools {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := dataset.NewGenerator(o.seed*1000 + int64(k) + 1)
			per := (o.poolFrames + maxPeople - 1) / maxPeople
			strata := make([][]dataset.Frame, maxPeople)
			for people := 1; people <= maxPeople; people++ {
				strata[people-1] = g.CrowdFrames(per, people, people, 2)
			}
			pool := make([]dataset.Frame, 0, per*maxPeople)
			for i := 0; i < per; i++ {
				for _, st := range strata {
					pool = append(pool, st[i])
				}
			}
			pools[k] = pool
		}(k)
	}
	wg.Wait()
	return pools
}

// serveHTTP puts /api/ and /metrics on one listener: polesim's single
// diagnostics port in the measured run, the benchmark's own timed
// http.Server in the traced one.
func (c *campus) serveHTTP() error {
	if c.rec == nil {
		ms, err := obs.ServeMounts("127.0.0.1:0", c.reg, map[string]http.Handler{"/api/": c.srv.APIHandler()})
		if err != nil {
			return err
		}
		c.base = "http://" + ms.Addr()
		c.closeHTTP = ms.Close
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", c.rec.serveHandler(c.srv.APIHandler()))
	mux.Handle("/metrics", c.rec.serveHandler(c.reg.Handler()))
	hs := &http.Server{Handler: mux}
	c.httpWG.Add(1)
	go func() {
		defer c.httpWG.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	c.base = "http://" + ln.Addr().String()
	c.closeHTTP = hs.Close
	return nil
}

// close stops everything the campus started and waits for it.
func (c *campus) close() {
	select {
	case <-c.sched.stop:
	default:
		close(c.sched.stop)
	}
	// Poles that never ran still hold a backend connection; a canceled
	// Run closes it without pulling a frame.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, lp := range c.poles {
		if lp.processed == 0 && lp.err == nil {
			_, _ = lp.run.Run(ctx) // canceled on purpose
		}
	}
	if c.stopDuties != nil {
		c.stopDuties()
	}
	if c.closeHTTP != nil {
		_ = c.closeHTTP() // shutdown path: nothing left to report
	}
	c.httpWG.Wait()
	_ = c.srv.Close() // the in-memory history has no files to flush
}

// runObs is everything a run observed, for metrics and checks.
type runObs struct {
	prime    fleet.ReportResult
	primeErr error
	// warm is the paced fleet load of the warm-up before timing.
	warm  *pacedResult
	paced *pacedResult
	dash  *dashResult
	snap  *backend.Snapshot
	// run holds the counter readings at the run's start and end.
	run [2]countSample
	// bursts holds the counter readings that open and close each pole
	// burst's measured part.
	bursts [][2]countSample
}

// fleetAcked is the synthetic fleet's acknowledged reports: priming,
// warm-up and paced.
func (ob *runObs) fleetAcked() int64 {
	return int64(ob.prime.Reports + ob.warm.ackedCount() + ob.paced.ackedCount())
}

// countSample is one reading of the acknowledged-work counters.
type countSample struct {
	at     int64  // unix ns
	frames uint64 // LiDAR reports acknowledged
	paced  int64  // paced fleet reports acknowledged
}

// primeTimeout bounds the wait for primed poles to show in a snapshot.
const primeTimeout = 60 * time.Second

// drive runs the workload on a set-up campus: prime, warm up, the timed
// run, drain. It returns an error only when the run could not be
// carried out at all; operation failures are in runObs.
func (c *campus) drive() (*runObs, error) {
	wl, o := c.wl, c.o
	ob := &runObs{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var poleWG sync.WaitGroup
	for _, lp := range c.poles {
		poleWG.Add(1)
		go func(lp *lidarPole) {
			defer poleWG.Done()
			lp.processed, lp.err = lp.run.Run(ctx)
		}(lp)
	}
	// The poles count their priming frames meanwhile.
	ob.prime, ob.primeErr = fleet.Report(ctx, fleet.ReportConfig{
		Addr: c.srv.Addr(), Poles: wl.fleetPoles, ReportsPerPole: 1,
		Conns: 1, Zones: fleetZones, Seed: o.seed,
	})
	if err := c.awaitPrimed(ob.prime.Reports); err != nil {
		close(c.sched.stop)
		poleWG.Wait()
		return nil, err
	}
	fleetIDs := make([]uint32, wl.fleetPoles)
	for i := range fleetIDs {
		fleetIDs[i] = uint32(i + 1)
	}
	// Warm up: the paced fleet load, untimed, until the backend's heap
	// has grown to its steady size.
	warmFrom := time.Now()
	ob.warm = runPaced(c.sched, pacedConfig{
		addr: c.srv.Addr(), ids: fleetIDs, rate: wl.fleetRate,
		start: warmFrom, end: warmFrom.Add(c.o.warmup()), seed: o.seed + 50,
	})

	c.sched.begin(wl, o.duration())
	var pacedAcks atomic.Int64
	pacedDone := make(chan *pacedResult, 1)
	go func() {
		cfg := pacedConfig{
			addr: c.srv.Addr(), ids: fleetIDs, rate: wl.fleetRate,
			start: c.sched.t0, end: c.sched.end, seed: o.seed + 1,
			keepBodies: c.rec != nil, acks: &pacedAcks,
		}
		pacedDone <- runPaced(c.sched, cfg)
	}()
	dashStop := make(chan struct{})
	dashDone := make(chan *dashResult, 1)
	go func() {
		dashDone <- runDashboard(dashConfig{
			base: c.base, stop: dashStop, mix: wl.mix, pollPeriod: wl.pollPeriod, seed: o.seed + 2,
			fleetPoles: wl.fleetPoles, fleetZones: fleetZones,
		})
	}()
	readCounts := func() countSample {
		cs := countSample{at: time.Now().UnixNano(), paced: pacedAcks.Load()}
		for _, lp := range c.poles {
			cs.frames += lp.run.Acked()
		}
		return cs
	}
	ob.run[0] = readCounts()
	for _, b := range c.sched.bursts {
		c.sched.sleepUntil(time.Unix(0, b.from).Add(c.sched.ramp))
		from := readCounts()
		c.sched.sleepUntil(time.Unix(0, b.to))
		ob.bursts = append(ob.bursts, [2]countSample{from, readCounts()})
	}
	c.sched.sleepUntil(c.sched.end)
	ob.paced = <-pacedDone
	ob.run[1] = readCounts()

	drained := make(chan struct{})
	go func() {
		poleWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(ackTimeout):
		cancel() // a wedged pole: its unacked frames count as failed
		<-drained
	}
	// The dashboard stops only after the published snapshot holds every
	// acknowledged report, and a visibleTail of probes has seen it.
	acked := ob.fleetAcked()
	for _, lp := range c.poles {
		acked += int64(lp.run.Acked())
	}
	for deadline := time.Now().Add(ackTimeout); c.srv.Current().Campus.Reports < acked && time.Now().Before(deadline); {
		time.Sleep(wl.pollPeriod)
	}
	time.Sleep(visibleTail)
	close(dashStop)
	ob.dash = <-dashDone
	if c.rec != nil {
		p := ob.paced
		for i, a := range p.acked {
			if a != 0 {
				c.rec.add(span{kind: spanIngest, trace: uint64(i), start: p.sent[i], dur: a - p.sent[i]})
			}
		}
	}
	for _, lp := range c.poles {
		lp.ackedFinal = lp.run.Acked()
		_, lp.remote, lp.fallback = lp.run.Offload().Decisions()
	}

	if c.stopDuties != nil {
		c.stopDuties()
	}
	c.srv.FlushHistory()
	ob.snap = c.srv.RebuildSnapshot()
	for _, lp := range c.poles {
		if sr, ok := c.srv.History().Lookup(lp.id, "count"); ok {
			raw, err := sr.QueryRaw(0, 1<<62)
			if err != nil {
				return nil, fmt.Errorf("history of pole %d: %w", lp.id, err)
			}
			for _, s := range raw {
				lp.historyCount = append(lp.historyCount, s.V)
			}
		}
	}
	return ob, nil
}

// awaitPrimed waits until the published snapshot shows every LiDAR pole
// with its priming frames and the fleet's priming reports, so no
// dashboard read during timing can miss a pole.
func (c *campus) awaitPrimed(fleetReports int) error {
	deadline := time.Now().Add(primeTimeout)
	for time.Now().Before(deadline) {
		snap := c.srv.Current()
		ok := snap.Campus.Reports >= int64(fleetReports+primeFrames*len(c.poles))
		for _, lp := range c.poles {
			p, found := snap.Pole(lp.id)
			ok = ok && found && p.Reports >= primeFrames
		}
		if ok {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("priming: poles did not appear in the campus snapshot in time")
}
