package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/geom"
	"hawccc/internal/pole"
	"hawccc/internal/telemetry"
	"hawccc/internal/wire"
)

// Tracing lives entirely in the benchmark: spans around its own calls
// into each module's public functions. A span has a kind (the layer), a
// trace id shared by the spans of one frame, report or request, a start
// and a duration. Spans stay in memory and are written out when the run
// ends.

type spanKind uint8

const (
	spanGround     spanKind = iota // ground.ROI.CropInto + ground.SegmentInto, from Timing
	spanCluster                    // cluster.Scratch.Adaptive, from Timing
	spanClassify                   // classify stage (models.HAWC.PredictHumans), from Timing; n = kept clusters
	spanStreamWait                 // counting.Pipeline.StreamWith: E2E − Timing.Total
	spanSendAck                    // pole report wire.Conn.Send → ack Recv
	spanOffload                    // pole.Offloader.ClassifyRemote; n = lattice batch bytes
	spanIngest                     // paced fleet report write → ack
	spanSnapshot                   // backend.Server.RebuildSnapshot; trace = snapshot seq, n = poles
	spanHistory                    // backend.Server.SampleHistory; n = records
	spanServe                      // API or /metrics ServeHTTP; trace = request id, n = bytes
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"ground", "cluster", "models.classify", "counting.stream.wait", "pole.send_ack",
	"backend.offload", "backend.ingest", "backend.snapshot", "backend.history", "backend.api.serve",
}

// Serve endpoint classes (span.ep).
const (
	epAPI     = 1
	epHistory = 2
	epMetrics = 3
)

type span struct {
	kind  spanKind
	ep    uint8  // spanServe: endpoint class
	aux   int32  // spanServe: status; spanOffload: 1 when the call failed
	trace uint64 // frame: pole<<32 | stream seq; report: seq; serve: request id
	start int64  // unix ns
	dur   int64  // ns
	n     int64  // work count, see the kind
}

// recorder collects spans from every goroutine of a traced run.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byKind returns the spans of one kind (call after the run).
func (r *recorder) byKind(k spanKind) []span {
	var out []span
	for _, s := range r.spans {
		if s.kind == k {
			out = append(out, s)
		}
	}
	return out
}

// writeTo dumps the spans as CSV: kind,trace,start_ns,dur_ns,n,ep,aux.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,trace,start_ns,dur_ns,n,ep,aux")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", spanNames[s.kind], s.trace, s.start, s.dur, s.n, s.ep, s.aux)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveWriter counts what a handler writes.
type serveWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *serveWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *serveWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// serveHandler times h.ServeHTTP and records one serve span per request,
// keyed by the client's request id.
func (r *recorder) serveHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &serveWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(sw, req)
		d := time.Since(t0)
		ep := uint8(epAPI)
		switch {
		case req.URL.Path == "/metrics":
			ep = epMetrics
		case strings.HasPrefix(req.URL.Path, "/api/history"):
			ep = epHistory
		}
		id, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64) // 0 when absent
		r.add(span{kind: spanServe, ep: ep, aux: int32(sw.status), trace: id,
			start: t0.UnixNano(), dur: d.Nanoseconds(), n: sw.bytes})
	})
}

// startDuties runs the backend's periodic duties from the benchmark, so
// each call gets a span: RebuildSnapshot at the default snapshot cadence
// and SampleHistory at the default history cadence (the server's own
// loops are off in a traced run). The returned stop waits for both.
func startDuties(srv *backend.Server, rec *recorder) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(every time.Duration, duty func()) {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				duty()
			}
		}
	}
	wg.Add(2)
	go loop(snapshotCadence, func() {
		t0 := time.Now()
		snap := srv.RebuildSnapshot()
		rec.add(span{kind: spanSnapshot, trace: snap.Seq, start: t0.UnixNano(),
			dur: time.Since(t0).Nanoseconds(), n: int64(len(snap.Poles))})
	})
	go loop(historyCadence, func() {
		t0 := time.Now()
		n := srv.SampleHistory()
		rec.add(span{kind: spanHistory, start: t0.UnixNano(), dur: time.Since(t0).Nanoseconds(), n: int64(n)})
	})
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// timedRemote wraps the pole's offload client with a span per call.
type timedRemote struct {
	inner *pole.Offloader
	rec   *recorder
	pole  uint32
}

// ClassifyRemote implements counting.RemoteClassifier.
func (t timedRemote) ClassifyRemote(batch *wire.ClusterBatch) ([]bool, error) {
	size := len(wire.EncodeClusterBatch(*batch))
	t0 := time.Now()
	labels, err := t.inner.ClassifyRemote(batch)
	s := span{kind: spanOffload, trace: uint64(t.pole)<<32 | batch.Seq, start: t0.UnixNano(),
		dur: time.Since(t0).Nanoseconds(), n: int64(size)}
	if err != nil {
		s.aux = 1
	}
	t.rec.add(s)
	return labels, err
}

// tracedPole is the traced stand-in for pole.Node: the same public calls
// the node makes — Pipeline.StreamWith with the node's stream settings,
// then EncodeCountReport, wire.Conn.Send and the ack Recv, then the
// telemetry reading — with a span around each.
type tracedPole struct {
	id       uint32
	loc      string
	zone     string
	src      *frameSource
	pipe     *counting.Pipeline
	ctl      *counting.OffloadController
	off      *pole.Offloader
	readings []telemetry.Reading
	rec      *recorder

	conn  net.Conn
	wc    *wire.Conn
	acked atomic.Uint64
}

func dialTraced(addr string, tp *tracedPole, mode counting.OffloadMode, version uint32) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("traced pole %d: %w", tp.id, err)
	}
	tp.conn = conn
	tp.wc = wire.NewConn(conn)
	hello := wire.Hello{PoleID: tp.id, Location: tp.loc, Zone: tp.zone, ModelVersion: version}
	if err := tp.wc.Send(wire.MsgHello, wire.EncodeHello(hello)); err != nil {
		conn.Close()
		return fmt.Errorf("traced pole %d: hello: %w", tp.id, err)
	}
	if mode != counting.OffloadOff {
		tp.off = pole.NewOffloader(pole.OffloaderConfig{
			BackendAddr: addr, PoleID: tp.id, Location: tp.loc, Zone: tp.zone, ModelVersion: version,
		})
		tp.ctl = counting.NewOffloadController(counting.OffloadConfig{
			Mode: mode, Remote: timedRemote{inner: tp.off, rec: tp.rec, pole: tp.id},
		})
	}
	return nil
}

// Acked returns the highest acknowledged report sequence.
func (tp *tracedPole) Acked() uint64 { return tp.acked.Load() }

// Offload returns the offload controller (nil with offload off).
func (tp *tracedPole) Offload() *counting.OffloadController { return tp.ctl }

// Run streams the source's frames until it is exhausted.
func (tp *tracedPole) Run(ctx context.Context) (int, error) {
	defer tp.close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ctx, tp.close)
	defer stop()

	frames := make(chan geom.Cloud)
	var srcErr error
	go func() {
		defer close(frames)
		for ctx.Err() == nil {
			f, err := tp.src.NextFrame()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				srcErr = err
				return
			}
			select {
			case frames <- f.Cloud:
			case <-ctx.Done():
				return
			}
		}
	}()

	processed := 0
	for res := range tp.pipe.StreamWith(ctx, frames, counting.StreamConfig{Offload: tp.ctl}) {
		done := time.Now()
		trace := uint64(tp.id)<<32 | res.Seq
		entry := done.Add(-res.E2E).UnixNano()
		tm := res.Timing
		tp.rec.add(span{kind: spanGround, trace: trace, start: entry, dur: tm.Ingest.Nanoseconds()})
		tp.rec.add(span{kind: spanCluster, trace: trace, start: entry, dur: tm.Cluster.Nanoseconds()})
		tp.rec.add(span{kind: spanClassify, trace: trace, start: entry, dur: tm.Classify.Nanoseconds(), n: int64(res.Clusters)})
		tp.rec.add(span{kind: spanStreamWait, trace: trace, start: entry, dur: (res.E2E - tm.Total()).Nanoseconds()})

		seq := uint64(processed + 1)
		body := wire.EncodeCountReport(wire.CountReport{
			PoleID: tp.id, Seq: seq, Timestamp: time.Now().UTC(),
			Count: uint32(res.Count), Clusters: uint32(res.Clusters), LatencyUS: uint32(res.E2E.Microseconds()),
		})
		t0 := time.Now()
		if err := tp.wc.Send(wire.MsgCountReport, body); err != nil {
			return processed, fmt.Errorf("traced pole %d: send report: %w", tp.id, err)
		}
		if err := tp.awaitAck(seq); err != nil {
			return processed, err
		}
		tp.rec.add(span{kind: spanSendAck, trace: trace, start: t0.UnixNano(), dur: time.Since(t0).Nanoseconds()})
		tp.acked.Store(seq)

		if processed < len(tp.readings) {
			r := tp.readings[processed]
			tm := wire.EncodeTelemetry(wire.Telemetry{PoleID: tp.id, Timestamp: r.At, PoleTemp: r.Pole, Ambient: r.Weather})
			if err := tp.wc.Send(wire.MsgTelemetry, tm); err != nil {
				return processed, fmt.Errorf("traced pole %d: send telemetry: %w", tp.id, err)
			}
		}
		processed++
	}
	if err := ctx.Err(); err != nil {
		return processed, err
	}
	return processed, srcErr
}

// awaitAck reads until the ack for seq, skipping alerts.
func (tp *tracedPole) awaitAck(seq uint64) error {
	for {
		t, body, err := tp.wc.Recv()
		if err != nil {
			return fmt.Errorf("traced pole %d: awaiting ack: %w", tp.id, err)
		}
		switch t {
		case wire.MsgAck:
			ack, err := wire.DecodeAck(body)
			if err != nil {
				return err
			}
			if ack.Seq == seq {
				return nil
			}
		case wire.MsgAlert:
			if _, err := wire.DecodeAlert(body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("traced pole %d: unexpected message type %d", tp.id, t)
		}
	}
}

func (tp *tracedPole) close() {
	tp.conn.Close()
	if tp.off != nil {
		tp.off.Close()
	}
}

// Compile-time checks that both pole runners fit the campus.
var (
	_ poleRunner = (*tracedPole)(nil)
	_ poleRunner = (*pole.Node)(nil)
)
