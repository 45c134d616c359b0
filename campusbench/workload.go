package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hawccc/internal/counting"
)

// visibleSource names the operations whose capture-to-visible latency a
// workload measures.
type visibleSource int

const (
	visibleFrames  visibleSource = iota // LiDAR pole frames
	visibleReports                      // paced synthetic fleet reports
)

// workload is one traffic mix over the same campus: two LiDAR poles, a
// synthetic fleet and dashboard clients, each at its own rate. A run is
// paced open-loop load (latency at fixed offered rates) with capacity
// measured in it: pole saturation bursts, or a closed-loop dashboard
// client; see README.md for why each workload exists.
type workload struct {
	name    string
	offload counting.OffloadMode
	// poleRate is the paced frame rate per LiDAR pole; with poleSaturate
	// the poles pull frames as fast as backpressure allows in the bursts.
	// The paced rates are not multiples of the 20 Hz snapshot cadence, so
	// frames land at every offset from a snapshot tick, not at a few
	// phase-locked ones that would differ from run to run.
	poleRate     float64
	poleSaturate bool
	// fleetPoles synthetic poles report at fleetRate (reports/s over the
	// whole fleet) on one open-loop connection.
	fleetPoles int
	fleetRate  float64
	// mix has the dashboard client run the seeded endpoint mix closed
	// loop; pollPeriod is its /api/zones probe period, the resolution of
	// capture-to-visible latency.
	mix        bool
	pollPeriod time.Duration
	visible    visibleSource
}

// workloads are the named traffic mixes the benchmark accepts.
var workloads = map[string]workload{
	"pole-stream": {
		name: "pole-stream", offload: counting.OffloadOff,
		poleRate: 34.7, poleSaturate: true,
		fleetPoles: 100, fleetRate: 1000,
		pollPeriod: 2 * time.Millisecond, visible: visibleFrames,
	},
	"pole-offload": {
		name: "pole-offload", offload: counting.OffloadForced,
		poleRate: 34.7, poleSaturate: true,
		fleetPoles: 100, fleetRate: 1000,
		pollPeriod: 2 * time.Millisecond, visible: visibleFrames,
	},
	"dashboard-read": {
		name:     "dashboard-read",
		poleRate: 5.3, fleetPoles: 2000, fleetRate: 1000,
		mix: true, pollPeriod: 5 * time.Millisecond, visible: visibleReports,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func lookupWorkload(name string) (workload, error) {
	wl, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	return wl, nil
}

// Fixed benchmark constants. Changing any of them changes what the
// benchmark measures, so a change that claims a gain may not touch them.
const (
	// lidarPoles is the number of real pole.Node pipelines.
	lidarPoles = 2
	// poolFrames distinct seeded LiDAR frames per pole, maxPeople strata
	// of equal size; streams cycle through the pool, and count_mae is
	// taken over it.
	poolFrames = 120
	maxPeople  = 6
	// primeFrames each LiDAR pole counts before timing starts, so the
	// pole is in the snapshot (no ramp-up 404) and its stream is warm.
	primeFrames = 4
	// trainSeed, trainPerClass and trainEpochs fix the classifier: the
	// same weights (and ModelVersion) on every run and every seed.
	trainSeed     = 7
	trainPerClass = 80
	trainEpochs   = 3
	// crowdingLimit and overheatLimit are polesim's alert limits.
	crowdingLimit = 6
	overheatLimit = 50
	// zones the synthetic fleet is spread over (fleet.ZoneName).
	fleetZones = 4
	// visibleTail keeps the dashboard client probing once the published
	// snapshot holds every acknowledged report, so the probes see it.
	visibleTail = time.Second
	// scrapePeriod is the /metrics scrape period.
	scrapePeriod = time.Second
	// snapshotCadence and historyCadence drive the backend's periodic
	// duties in the traced run: backend.DefaultSnapshotInterval and
	// tsdb.DefaultSampleInterval.
	snapshotCadence = 50 * time.Millisecond
	historyCadence  = time.Second
	// The pole workloads saturate in poleBursts bursts of poleBurst, one
	// at the end of each equal slice of the run, so the frame rate samples
	// the machine at several moments of a run rather than one. Paced
	// frames due within a burst or poleGuard after it, while the stream
	// drains its backlog, are left out of the latency figures; the frame
	// rate skips the first burstRamp of a burst, while the stream fills.
	poleBursts = 5
	poleBurst  = 700 * time.Millisecond
	poleGuard  = 250 * time.Millisecond
	burstRamp  = 100 * time.Millisecond
	// warmup is the untimed paced fleet load between priming and timing:
	// the backend's heap keeps growing for a while after priming (about
	// two seconds at 10k poles), and a run timed from priming opened with
	// the tails of that growth.
	warmup = 2 * time.Second
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 3
)

// options are the per-run settings. The zero values of the size
// overrides select the benchmark constants; tests shrink them.
type options struct {
	seed    int64
	seconds float64
	setups  int

	// Size overrides for short test runs.
	poolFrames    int
	trainPerClass int
	trainEpochs   int
	fleetScale    float64 // multiplies fleetPoles and fleetRate
}

func (o options) withDefaults() options {
	if o.setups <= 0 {
		o.setups = setupReps
	}
	if o.poolFrames <= 0 {
		o.poolFrames = poolFrames
	}
	if o.trainPerClass <= 0 {
		o.trainPerClass = trainPerClass
	}
	if o.trainEpochs <= 0 {
		o.trainEpochs = trainEpochs
	}
	if o.fleetScale <= 0 {
		o.fleetScale = 1
	}
	return o
}

// warmup is the warm-up length: the constant, or a tenth of a run too
// short for it (tests).
func (o options) warmup() time.Duration { return min(warmup, o.duration()/10) }

// duration is the measured length of a run.
func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// scaled applies the fleet size override.
func (wl workload) scaled(o options) workload {
	wl.fleetPoles = int(float64(wl.fleetPoles) * o.fleetScale)
	if wl.fleetPoles < 1 {
		wl.fleetPoles = 1
	}
	wl.fleetRate *= o.fleetScale
	return wl
}

// burstPlan returns the number of pole saturation bursts in a run of the
// given length and their burst, guard and ramp lengths: the constants,
// scaled down for runs too short for them (tests). A workload whose poles
// do not saturate has no bursts.
func (wl workload) burstPlan(total time.Duration) (count int, length, guard, ramp time.Duration) {
	if !wl.poleSaturate {
		return 0, 0, 0, 0
	}
	slice := total / poleBursts
	length = min(poleBurst, slice/2)
	return poleBursts, length, min(poleGuard, slice/8), min(burstRamp, length/4)
}

// bursts places the saturation bursts in a run of the given length
// starting at t0: each ends an equal slice of the run.
func (wl workload) bursts(t0 time.Time, total time.Duration) []window {
	count, length, _, _ := wl.burstPlan(total)
	out := make([]window, count)
	for k := range out {
		end := t0.Add(total * time.Duration(k+1) / time.Duration(count))
		out[k] = window{from: end.Add(-length).UnixNano(), to: end.UnixNano()}
	}
	return out
}

// window is a span of time, [from, to) in unix ns.
type window struct{ from, to int64 }

func (w window) holds(t int64) bool { return t >= w.from && t < w.to }
