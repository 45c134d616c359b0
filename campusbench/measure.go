package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hawccc/internal/counting"
	"hawccc/internal/fleet"
	"hawccc/internal/ground"
	"hawccc/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// dist is a latency distribution summarized by the benchmark's rule: the
// median and the highest percentile with at least ten samples beyond it,
// both nearest-rank from fleet.Percentiles.
type dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	Tail float64 `json:"tail"`
	// TailQ is the quantile Tail stands for: 0.99 when there are at
	// least 1000 samples, else 0.95 (200), else 0.5 (20), else the max.
	TailQ float64 `json:"tail_q"`
}

// summarize applies the percentile rule to samples (sorted in place).
func summarize(samples []float64) dist {
	d := dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	st := fleet.Percentiles(samples)
	d.P50 = st.P50Ms
	switch {
	case d.N >= 1000:
		d.Tail, d.TailQ = st.P99Ms, 0.99
	case d.N >= 200:
		d.Tail, d.TailQ = st.P95Ms, 0.95
	case d.N >= 20:
		d.Tail, d.TailQ = st.P50Ms, 0.5
	default:
		d.Tail, d.TailQ = st.MaxMs, 1
	}
	return d
}

// hasP99 reports whether the tail is a publishable p99.
func (d dist) hasP99() bool { return d.TailQ == 0.99 }

// median is the nearest-rank median of fleet.Percentiles; v is sorted in
// place.
func median(v []float64) float64 { return fleet.Percentiles(v).P50Ms }

// rate is a counter's rate over the spans between pairs of readings,
// taken together.
func rate(spans [][2]countSample, value func(countSample) float64) float64 {
	var n float64
	var ns int64
	for _, b := range spans {
		n += value(b[1]) - value(b[0])
		ns += b[1].at - b[0].at
	}
	if ns <= 0 {
		return 0
	}
	return n / float64(ns) * 1e9
}

// ackLatency is the published ack latency: every paced report due in
// quiet time and acknowledged, timed from its due time, so a stall in the
// sender delays every report behind it and shows.
func ackLatency(sched *schedule, p *pacedResult) dist {
	var v []float64
	for i, a := range p.acked {
		if a != 0 && sched.isQuiet(p.due[i]) {
			v = append(v, ms(a-p.due[i]))
		}
	}
	return summarize(v)
}

// counts tallies operations for error_ratio.
type counts struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func (c *counts) add(attempted, failed int) {
	c.Attempted += attempted
	if failed > 0 {
		c.Failed += failed
	}
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// measurement is what one pass of a workload measured: the end-to-end
// metrics with the distributions and counts behind them.
type measurement struct {
	metrics    map[string]metric
	dists      map[string]dist
	ops        counts
	problems   []string
	throughput float64 // the workload's headline rate, for trace overhead

	// For the traced reconciliation: the visible samples and each paced
	// report's write→ack time (ns, 0 when unacknowledged).
	visibleSamples []visibleSample
	pacedAcks      []int64
}

// visibleSample is one capture-to-visible observation.
type visibleSample struct {
	trace uint64 // frame (pole<<32 | stream seq) or paced report index
	due   int64
	probe *probe
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.problems) < 32 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// reference is the expected output of every pool frame.
type reference struct {
	counts [][]int // per pole, per pool frame: Pipeline.Count
	kept   [][]int // kept clusters per pool frame
	mae    float64 // mean |count − ground truth| over all pool frames
}

// computeReference counts every pool frame with Pipeline.Count, the
// frame-at-a-time entry point, on the same trained classifier.
func computeReference(c *campus) reference {
	p := counting.New(c.clf)
	var ref reference
	var absErr float64
	frames := 0
	for _, lp := range c.poles {
		cs := make([]int, len(lp.pool))
		ks := make([]int, len(lp.pool))
		for i, f := range lp.pool {
			r := p.Count(f.Cloud)
			cs[i], ks[i] = r.Count, r.Clusters
			absErr += math.Abs(float64(r.Count - f.Count))
			frames++
		}
		ref.counts = append(ref.counts, cs)
		ref.kept = append(ref.kept, ks)
	}
	ref.mae = absErr / float64(frames)
	return ref
}

// measure turns a run's observations into end-to-end metrics and runs
// the correctness checks.
func measure(c *campus, ob *runObs, ref reference, setups []float64) *measurement {
	wl := c.wl
	m := &measurement{metrics: map[string]metric{}, dists: map[string]dist{}}
	put := func(name, unit string, v float64) { m.metrics[name] = metric{Value: v, Unit: unit} }

	put("setup_s", "s", median(append([]float64(nil), setups...)))

	// Frames: every frame offered must be counted, reported and acked.
	for _, lp := range c.poles {
		m.ops.add(lp.src.n, lp.src.n-int(lp.ackedFinal))
		if lp.err != nil {
			m.problem("pole %d: %v", lp.id, lp.err)
		}
	}
	// Rates are taken over the pole bursts, or over the whole run when the
	// poles are paced throughout.
	spans := ob.bursts
	if !wl.poleSaturate {
		spans = [][2]countSample{ob.run}
	}
	put("frames_per_s", "frames/s", rate(spans, func(s countSample) float64 { return float64(s.frames) }))

	// Reports: priming, warm-up and paced fleet reports.
	m.ops.add(c.wl.fleetPoles, c.wl.fleetPoles-ob.prime.Reports)
	if ob.primeErr != nil {
		m.problem("fleet priming: %v", ob.primeErr)
	}
	m.ops.add(len(ob.warm.due), len(ob.warm.due)-ob.warm.ackedCount())
	if ob.warm.err != nil {
		m.problem("warm-up: %v", ob.warm.err)
	}
	p := ob.paced
	m.ops.add(len(p.due), len(p.due)-p.ackedCount())
	if p.err != nil {
		m.problem("%v", p.err)
	}
	put("reports_per_s", "reports/s", rate(spans, func(s countSample) float64 { return float64(s.frames) + float64(s.paced) }))
	m.pacedAcks = make([]int64, len(p.acked))
	for i, a := range p.acked {
		if a != 0 {
			m.pacedAcks[i] = a - p.sent[i]
		}
	}
	ack := ackLatency(c.sched, p)
	m.dists["ack_ms"] = ack
	put("ack_p50_ms", "ms", ack.P50)
	put("ack_p99_ms", "ms", ack.Tail)

	// Queries: the dashboard requests issued in quiet time, whose load is
	// the same on every run; every request counts toward errors.
	d := ob.dash
	m.ops.add(len(d.queries), d.failed)
	for _, pr := range d.problems {
		m.problem("dashboard: %s", pr)
	}
	var qms []float64
	for _, q := range d.queries {
		if c.sched.isQuiet(q.at) {
			qms = append(qms, q.ms)
		}
	}
	put("queries_per_s", "queries/s", float64(len(qms))/c.sched.quietSeconds())
	q := summarize(qms)
	m.dists["query_ms"] = q
	put("query_p50_ms", "ms", q.P50)
	put("query_p99_ms", "ms", q.Tail)

	// Capture-to-visible, from the due time to the first probe showing it.
	vis, missed := visibility(c, ob)
	m.visibleSamples = vis
	vms := make([]float64, len(vis))
	for i, v := range vis {
		vms[i] = ms(v.probe.recv - v.due)
	}
	if missed > 0 {
		m.ops.Failed += missed
		m.problem("%d paced operations were acknowledged but never became visible", missed)
	}
	vd := summarize(vms)
	m.dists["visible_ms"] = vd
	put("visible_p50_ms", "ms", vd.P50)
	put("visible_p99_ms", "ms", vd.Tail)

	put("count_mae", "people", ref.mae)
	put("peak_rss_mb", "MB", peakRSSMB())

	checkOutputs(c, ob, ref, m)
	put("error_ratio", "ratio", float64(m.ops.Failed)/float64(m.ops.Attempted))

	m.throughput = m.metrics["queries_per_s"].Value
	if wl.poleSaturate {
		m.throughput = m.metrics["frames_per_s"].Value
	}
	return m
}

// visibility matches each paced frame (pole workloads) or fleet report
// (dashboard-read) due in quiet time with the first /api/zones probe whose
// rollup shows it. It also returns how many acknowledged ones no probe
// ever showed.
func visibility(c *campus, ob *runObs) ([]visibleSample, int) {
	probes := ob.dash.probes
	var out []visibleSample
	missed := 0
	// rollup sums each probe's report counts over the zones kept.
	rollup := func(keep func(zone string) bool) []int64 {
		totals := make([]int64, len(probes))
		for i, p := range probes {
			for z, r := range p.zones {
				if keep(z) {
					totals[i] += r
				}
			}
		}
		return totals
	}
	// match pairs an operation with the first probe whose total reaches need.
	match := func(totals []int64, need int64, trace uint64, due int64) {
		k := sort.Search(len(totals), func(k int) bool { return totals[k] >= need })
		if k == len(totals) {
			missed++
			return
		}
		out = append(out, visibleSample{trace: trace, due: due, probe: &probes[k]})
	}
	if c.wl.visible == visibleFrames {
		for _, lp := range c.poles {
			zone := lidarZone(lp.id)
			totals := rollup(func(z string) bool { return z == zone })
			// Report i+1 of the pole carries frame i; unacked frames have
			// already failed.
			for i := primeFrames; uint64(i) < lp.ackedFinal; i++ {
				if lp.src.isPaced(i) {
					match(totals, int64(i+1), uint64(lp.id)<<32|uint64(i), lp.src.due[i])
				}
			}
		}
		return out, missed
	}
	// One connection applies the paced reports in order, after the primes
	// and the warm-up.
	totals := rollup(func(z string) bool { return strings.HasPrefix(z, "zone-") })
	base := int64(ob.prime.Reports + ob.warm.ackedCount())
	p := ob.paced
	for i := range p.due {
		if p.acked[i] != 0 && c.sched.isQuiet(p.due[i]) {
			match(totals, base+int64(i)+1, uint64(i), p.due[i])
		}
	}
	return out, missed
}

// checkOutputs runs the correctness checks; a failure is a problem,
// which makes the run incorrect.
func checkOutputs(c *campus, ob *runObs, ref reference, m *measurement) {
	var lidarAcked int64
	for k, lp := range c.poles {
		lidarAcked += int64(lp.ackedFinal)
		if int(lp.ackedFinal) != lp.src.n {
			m.problem("pole %d: %d frames offered, %d reports acknowledged", lp.id, lp.src.n, lp.ackedFinal)
		}
		// Every reported count equals Pipeline.Count on the same frame.
		if len(lp.historyCount) != lp.src.n {
			m.problem("pole %d: %d frames offered, %d counts in the backend history", lp.id, lp.src.n, len(lp.historyCount))
		}
		var want int64
		bad := 0
		for i := 0; i < lp.src.n; i++ {
			r := ref.counts[k][i%len(lp.pool)]
			want += int64(r)
			if i < len(lp.historyCount) && int(lp.historyCount[i]) != r {
				if bad == 0 {
					m.problem("pole %d frame %d: reported count %v, Pipeline.Count %d", lp.id, i, lp.historyCount[i], r)
				}
				bad++
			}
		}
		if bad > 1 {
			m.problem("pole %d: %d reported counts differ from Pipeline.Count", lp.id, bad)
		}
		// Each report takes effect exactly once.
		st, ok := ob.snap.Pole(lp.id)
		switch {
		case !ok:
			m.problem("pole %d missing from the final snapshot", lp.id)
		case st.Reports != lp.src.n || st.TotalCount != want:
			m.problem("pole %d: backend has %d reports totalling %d, want %d totalling %d",
				lp.id, st.Reports, st.TotalCount, lp.src.n, want)
		}
	}
	acked := ob.fleetAcked() + lidarAcked
	if ob.snap.Campus.Reports != acked {
		m.problem("campus reports %d, acknowledged reports %d", ob.snap.Campus.Reports, acked)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// layerMeasure computes the per-layer metrics of a traced pass, with the
// untraced pass's measurement for the overhead ratio.
func layerMeasure(c *campus, ob *runObs, ref reference, traced, plain *measurement) (map[string]metric, map[string]dist) {
	rec := c.rec
	out := map[string]metric{}
	dists := map[string]dist{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	// Whether a frame, by pole and stream seq, counts as paced.
	srcs := map[uint32]*frameSource{}
	for _, lp := range c.poles {
		srcs[lp.id] = lp.src
	}
	isPaced := func(trace uint64) bool {
		src := srcs[uint32(trace>>32)]
		return src != nil && src.isPaced(int(trace&0xffffffff))
	}

	busy := func(spans []span) float64 {
		var t int64
		for _, s := range spans {
			t += s.dur
		}
		return ms(t)
	}
	durs := func(spans []span, unit float64, keep func(span) bool) []float64 {
		var v []float64
		for _, s := range spans {
			if keep == nil || keep(s) {
				v = append(v, float64(s.dur)/unit)
			}
		}
		return v
	}
	const us, msec = 1e3, 1e6
	pacedSpan := func(s span) bool { return isPaced(s.trace) }

	// Pole stages, from the stream's per-frame Timing.
	groundS := rec.byKind(spanGround)
	put("ground.calls", "count", float64(len(groundS)))
	put("ground.busy_ms", "ms", busy(groundS))
	dists["ground.us"] = summarize(durs(groundS, us, nil))
	put("ground.p99_us", "us", dists["ground.us"].Tail)

	clusterS := rec.byKind(spanCluster)
	put("cluster.busy_ms", "ms", busy(clusterS))
	dists["cluster.us"] = summarize(durs(clusterS, us, nil))
	put("cluster.p99_us", "us", dists["cluster.us"].Tail)
	put("cluster.kept_ratio", "ratio", keptRatio(c, ref))

	// Classify self time: the stage minus any offload round trip it
	// waited on for the same frame.
	offS := rec.byKind(spanOffload)
	offByTrace := make(map[uint64]int64, len(offS))
	for _, s := range offS {
		offByTrace[s.trace] += s.dur
	}
	classifyS := rec.byKind(spanClassify)
	var clusters int64
	var classifySelf []float64
	var classifyBusy int64
	for _, s := range classifyS {
		clusters += s.n
		self := s.dur - offByTrace[s.trace]
		if self < 0 {
			self = 0
		}
		classifyBusy += self
		classifySelf = append(classifySelf, float64(self)/us)
	}
	put("models.classify.clusters", "clusters", float64(clusters))
	put("models.classify.busy_ms", "ms", ms(classifyBusy))
	dists["models.classify.us"] = summarize(classifySelf)
	put("models.classify.p99_us", "us", dists["models.classify.us"].Tail)

	waitS := rec.byKind(spanStreamWait)
	dists["counting.stream.wait_ms"] = summarize(durs(waitS, msec, pacedSpan))
	put("counting.stream.wait_p50_ms", "ms", dists["counting.stream.wait_ms"].P50)
	put("counting.stream.wait_p99_ms", "ms", dists["counting.stream.wait_ms"].Tail)

	sendS := rec.byKind(spanSendAck)
	dists["pole.send_ack_ms"] = summarize(durs(sendS, msec, pacedSpan))
	put("pole.send_ack_p50_ms", "ms", dists["pole.send_ack_ms"].P50)
	put("pole.send_ack_p99_ms", "ms", dists["pole.send_ack_ms"].Tail)

	// Wire: report size and decode cost on the bytes the fleet sent.
	bytesSum, decodeUS := reportWire(ob.paced.bodies)
	put("wire.report_bytes", "bytes", bytesSum)
	put("wire.report.decode_us", "us", decodeUS)
	var latticeBytes int64
	for _, s := range offS {
		latticeBytes += s.n
	}
	perFrame := 0.0
	if len(offS) > 0 {
		perFrame = float64(latticeBytes) / float64(len(offS))
	}
	put("wire.lattice.bytes_per_frame", "bytes", perFrame)

	// Offload service, as the poles saw it.
	var remote, fallback uint64
	for _, lp := range c.poles {
		remote += lp.remote
		fallback += lp.fallback
	}
	put("backend.offload.batches", "count", float64(remote))
	dists["backend.offload.rtt_ms"] = summarize(durs(offS, msec, nil))
	put("backend.offload.rtt_p50_ms", "ms", dists["backend.offload.rtt_ms"].P50)
	put("backend.offload.rtt_p99_ms", "ms", dists["backend.offload.rtt_ms"].Tail)
	put("backend.offload.fallbacks", "count", float64(fallback))

	// Ingest: paced fleet write → ack in quiet time.
	var ingest []float64
	p := ob.paced
	for i := range p.due {
		if c.sched.isQuiet(p.due[i]) && p.acked[i] != 0 {
			ingest = append(ingest, ms(p.acked[i]-p.sent[i]))
		}
	}
	dists["backend.ingest.ack_ms"] = summarize(ingest)
	put("backend.ingest.ack_p50_ms", "ms", dists["backend.ingest.ack_ms"].P50)
	put("backend.ingest.ack_p99_ms", "ms", dists["backend.ingest.ack_ms"].Tail)

	snapS := rec.byKind(spanSnapshot)
	put("backend.snapshot.calls", "count", float64(len(snapS)))
	put("backend.snapshot.busy_ms", "ms", busy(snapS))
	dists["backend.snapshot.ms"] = summarize(durs(snapS, msec, nil))
	put("backend.snapshot.p99_ms", "ms", dists["backend.snapshot.ms"].Tail)
	var poles int64
	for _, s := range snapS {
		if s.n > poles {
			poles = s.n
		}
	}
	put("backend.snapshot.poles", "poles", float64(poles))

	histS := rec.byKind(spanHistory)
	var records int64
	for _, s := range histS {
		records += s.n
	}
	put("backend.history.calls", "count", float64(len(histS)))
	put("backend.history.busy_ms", "ms", busy(histS))
	dists["backend.history.ms"] = summarize(durs(histS, msec, nil))
	put("backend.history.p99_ms", "ms", dists["backend.history.ms"].Tail)
	put("backend.history.records", "records", float64(records))

	serveS := rec.byKind(spanServe)
	var apiS, histReadS, scrapeS []span
	for _, s := range serveS {
		switch s.ep {
		case epMetrics:
			scrapeS = append(scrapeS, s)
		case epHistory:
			histReadS = append(histReadS, s)
			apiS = append(apiS, s)
		default:
			apiS = append(apiS, s)
		}
	}
	var notModified, bytesOut int64
	for _, s := range apiS {
		if s.aux == 304 {
			notModified++
		}
		bytesOut += s.n
	}
	put("backend.api.requests", "count", float64(len(apiS)))
	dists["backend.api.serve_ms"] = summarize(durs(apiS, msec, nil))
	put("backend.api.serve_p50_ms", "ms", dists["backend.api.serve_ms"].P50)
	put("backend.api.serve_p99_ms", "ms", dists["backend.api.serve_ms"].Tail)
	nmRatio := 0.0
	if len(apiS) > 0 {
		nmRatio = float64(notModified) / float64(len(apiS))
	}
	put("backend.api.not_modified_ratio", "ratio", nmRatio)
	put("backend.api.bytes_out", "bytes", float64(bytesOut))
	dists["tsdb.read_ms"] = summarize(durs(histReadS, msec, nil))
	put("tsdb.read_p99_ms", "ms", dists["tsdb.read_ms"].Tail)
	dists["obs.scrape_ms"] = summarize(durs(scrapeS, msec, nil))
	put("obs.scrape_p99_ms", "ms", dists["obs.scrape_ms"].Tail)
	var scrapeBytes int64
	for _, s := range scrapeS {
		scrapeBytes += s.n
	}
	perScrape := 0.0
	if len(scrapeS) > 0 {
		perScrape = float64(scrapeBytes) / float64(len(scrapeS))
	}
	put("obs.scrape_bytes", "bytes", perScrape)

	// The generator's own schedule: lateness of every paced operation.
	lag := pacedLag(c, ob)
	offered := len(lag)
	dists["loadgen.lag_ms"] = summarize(lag)
	put("loadgen.lag_p99_ms", "ms", dists["loadgen.lag_ms"].Tail)
	put("loadgen.offered_per_s", "1/s", float64(offered)/c.sched.quietSeconds())

	put("trace.unaccounted_ratio", "ratio", unaccounted(c, traced, snapS, serveS))
	overhead := 0.0
	if plain.throughput > 0 {
		overhead = 1 - traced.throughput/plain.throughput
	}
	put("trace.overhead_ratio", "ratio", overhead)
	return out, dists
}

// keptRatio is kept over candidate clusters across every frame the
// poles counted (pool frames weighted by how often they streamed).
func keptRatio(c *campus, ref reference) float64 {
	p := counting.New(c.clf)
	clusterer := counting.NewAdaptiveClusterer()
	var kept, candidates int
	for k, lp := range c.poles {
		for i, f := range lp.pool {
			uses := lp.src.n / len(lp.pool)
			if i < lp.src.n%len(lp.pool) {
				uses++
			}
			if uses == 0 {
				continue
			}
			ingested := ground.SegmentInto(nil, p.ROI.CropInto(nil, f.Cloud), ground.DefaultZMin)
			candidates += uses * clusterer.Cluster(ingested).NumClusters
			kept += uses * ref.kept[k][i]
		}
	}
	if candidates == 0 {
		return 0
	}
	return float64(kept) / float64(candidates)
}

// unaccounted is the share of the median capture-to-visible path that
// the blocking-path self times do not cover. Per visible sample the
// covered time is the stream's E2E (stage compute plus stream wait) and
// the report's send→ack for a frame, or the write→ack for a fleet
// report, plus the RebuildSnapshot that published it and the ServeHTTP
// of the probe that showed it. The rest is generator lag and waiting for
// the snapshot tick and the next probe.
func unaccounted(c *campus, traced *measurement, snapS, serveS []span) float64 {
	if len(traced.visibleSamples) == 0 {
		return 0
	}
	rec := c.rec
	snapDur := make(map[uint64]int64, len(snapS))
	for _, s := range snapS {
		snapDur[s.trace] = s.dur
	}
	serveDur := make(map[uint64]int64, len(serveS))
	for _, s := range serveS {
		serveDur[s.trace] = s.dur
	}
	path := make(map[uint64]int64)
	if c.wl.visible == visibleFrames {
		for _, k := range []spanKind{spanGround, spanCluster, spanClassify, spanStreamWait, spanSendAck} {
			for _, s := range rec.byKind(k) {
				path[s.trace] += s.dur
			}
		}
	}
	var visible, covered []float64
	for _, v := range traced.visibleSamples {
		cov := snapDur[v.probe.seq] + serveDur[v.probe.span]
		if c.wl.visible == visibleFrames {
			cov += path[v.trace]
		} else if i := int(v.trace); i < len(traced.pacedAcks) {
			cov += traced.pacedAcks[i]
		}
		visible = append(visible, ms(v.probe.recv-v.due))
		covered = append(covered, ms(cov))
	}
	vm := summarize(visible).P50
	if vm <= 0 {
		return 0
	}
	return 1 - summarize(covered).P50/vm
}

// reportWire returns the mean encoded report size and the mean
// wire.DecodeCountReport time over the bodies the fleet sent.
func reportWire(bodies [][]byte) (meanBytes, decodeUS float64) {
	var total int
	n := 0
	for _, b := range bodies {
		if b != nil {
			total += len(b)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	t0 := time.Now()
	for _, b := range bodies {
		if b != nil {
			_, _ = decodeReport(b)
		}
	}
	return float64(total) / float64(n), float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

// pacedLag returns the lateness (ms) of every operation the generator
// issued on the paced schedule in quiet time: frames offered and fleet
// reports sent.
func pacedLag(c *campus, ob *runObs) []float64 {
	var lag []float64
	for _, lp := range c.poles {
		for i := primeFrames; i < lp.src.n; i++ {
			if lp.src.isPaced(i) {
				lag = append(lag, ms(lp.src.offered[i]-lp.src.due[i]))
			}
		}
	}
	for i, d := range ob.paced.due {
		if c.sched.isQuiet(d) && ob.paced.sent[i] != 0 {
			lag = append(lag, ms(ob.paced.sent[i]-d))
		}
	}
	return lag
}

// decodeSink keeps timed decodes from being optimized away.
var decodeSink uint64

func decodeReport(b []byte) (wire.CountReport, error) {
	r, err := wire.DecodeCountReport(b)
	decodeSink += r.Seq
	return r, err
}
