package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"hawccc/internal/backend"
	"hawccc/internal/dataset"
)

// short is a run small enough for a test: a tiny classifier and frame
// pool, a twentieth of each fleet, three seconds of load.
func short(seed int64) options {
	return options{
		seed: seed, seconds: 3, setups: 1,
		poolFrames: 12, trainPerClass: 30, trainEpochs: 1, fleetScale: 0.05,
	}
}

// contract is the metric list of BENCHMARK.json.
type contract struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShortRunEveryWorkload: a short run of every workload passes every
// correctness check and reports every end-to-end metric, none zero but
// error_ratio, which is failed/attempted as measured.
func TestShortRunEveryWorkload(t *testing.T) {
	c := loadContract(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := execute(workloads[name], short(3), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Result.Correct || res.Result.Failed != 0 {
				t.Fatalf("correct=%v failed=%d problems=%v", res.Result.Correct, res.Result.Failed, res.Provenance.Problems)
			}
			if len(res.Result.Metrics) != len(c.EndToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end metrics", len(res.Result.Metrics), len(c.EndToEnd))
			}
			for _, m := range c.EndToEnd {
				v, ok := res.Result.Metrics[m.Name]
				if m.Name == "error_ratio" {
					if !ok || v.Value != 0 {
						t.Errorf("error_ratio = %+v (present %v), want 0 with no failures", v, ok)
					}
					continue
				}
				if !ok || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value", m.Name, v, ok)
				}
			}
		})
	}
}

// TestGeneratorStallShowsInPacedLatency: latency is timed from the due
// time, so a stall in the paced sender delays every report behind it and
// shows in the published ack latency (ackLatency, as measure reports it),
// not only in the sender's own lateness.
func TestGeneratorStallShowsInPacedLatency(t *testing.T) {
	srv, err := backend.Listen(backend.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const stall = 300 * time.Millisecond
	sched := newSchedule()
	sched.begin(workload{}, 2*time.Second)
	res := runPaced(sched, pacedConfig{
		addr: srv.Addr(), ids: []uint32{1, 2, 3}, rate: 2000,
		start: sched.t0, end: sched.end, seed: 1,
		stallAt: 1000, stallFor: stall,
	})
	if res.err != nil {
		t.Fatal(res.err)
	}
	var fromSend []float64
	for i, a := range res.acked {
		if a == 0 {
			t.Fatalf("report %d never acknowledged", i)
		}
		fromSend = append(fromSend, ms(a-res.sent[i]))
	}
	due := ackLatency(sched, res)
	send := summarize(fromSend)
	if !due.hasP99() {
		t.Fatalf("only %d samples", due.N)
	}
	if due.Tail < 0.8*float64(stall.Milliseconds()) {
		t.Errorf("published ack p99 %.1f ms; a %v stall must show", due.Tail, stall)
	}
	if due.Tail-send.Tail < 0.5*float64(stall.Milliseconds()) {
		t.Errorf("p99 from due %.1f ms vs from send %.1f ms: the stall is hidden when timed from the send", due.Tail, send.Tail)
	}
}

// TestFrameSourceTimesFromDue: frames a stalled pole pulls late keep
// their scheduled due times.
func TestFrameSourceTimesFromDue(t *testing.T) {
	pool := dataset.NewGenerator(1).CrowdFrames(1, 1, 1, 0)
	sched := newSchedule()
	src := newFrameSource(pool, sched, 100, 0, 1)
	for i := 0; i < primeFrames; i++ {
		if _, err := src.NextFrame(); err != nil {
			t.Fatal(err)
		}
	}
	sched.begin(workload{}, time.Second)
	for i := 0; i < 5; i++ {
		if _, err := src.NextFrame(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // the pole stalls
	if _, err := src.NextFrame(); err != nil {
		t.Fatal(err)
	}
	i := src.n - 1
	if late := time.Duration(src.offered[i] - src.due[i]); late < 100*time.Millisecond {
		t.Errorf("frame %d offered %v after its due time; the stall must show", i, late)
	}
	close(sched.stop)
}

// TestFrameSourceBursts: within a burst the source hands out a frame on
// every call, paced slots never fall in a burst, and frames due in a
// burst or its guard time do not count as paced.
func TestFrameSourceBursts(t *testing.T) {
	pool := dataset.NewGenerator(1).CrowdFrames(1, 1, 1, 0)
	sched := newSchedule()
	src := newFrameSource(pool, sched, 100, 0, 1)
	for i := 0; i < primeFrames; i++ {
		if _, err := src.NextFrame(); err != nil {
			t.Fatal(err)
		}
	}
	const paced = 2 * time.Second
	wl := workload{poleSaturate: true}
	sched.begin(wl, paced)
	for {
		if _, err := src.NextFrame(); err != nil {
			break
		}
		time.Sleep(time.Millisecond) // the pole's work per frame
	}
	count, length, _, _ := wl.burstPlan(paced)
	if len(sched.bursts) != count {
		t.Fatalf("%d bursts, want %d", len(sched.bursts), count)
	}
	var burst, counted int
	for i := primeFrames; i < src.n; i++ {
		b, in := src.burstAt(src.due[i])
		switch {
		case src.burst[i]:
			burst++
			if !in {
				t.Errorf("burst frame %d due outside every burst", i)
			}
		case in:
			t.Errorf("paced frame %d due inside the burst %v", i, b)
		}
		if src.isPaced(i) {
			counted++
		}
	}
	if slots := int(float64(count) * length.Seconds() * 100); burst <= slots {
		t.Errorf("%d burst frames; a burst must outpace the %d paced slots it replaces", burst, slots)
	}
	if want := int(sched.quietSeconds() * 100); counted < want-count-1 || counted > want+count+1 {
		t.Errorf("%d frames count as paced, want about %d over %.2fs of quiet time", counted, want, sched.quietSeconds())
	}
}

// TestTracedRunEmitsEveryLayerMetric: a traced run reports every
// per-layer metric, and each layer that works on a workload reports work.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	c := loadContract(t)
	working := map[string][]string{
		"pole-offload": {
			"ground.calls", "ground.busy_ms", "cluster.busy_ms", "cluster.kept_ratio",
			"models.classify.clusters", "models.classify.busy_ms",
			"pole.send_ack_p50_ms", "wire.lattice.bytes_per_frame",
			"backend.offload.batches", "backend.offload.rtt_p50_ms",
			"backend.snapshot.calls", "backend.api.requests", "obs.scrape_bytes",
			"loadgen.offered_per_s", "trace.unaccounted_ratio",
		},
		"dashboard-read": {
			"wire.report_bytes", "wire.report.decode_us",
			"backend.ingest.ack_p50_ms", "backend.snapshot.poles",
			"backend.history.calls", "backend.history.records", "obs.scrape_p99_ms",
			"backend.api.requests", "backend.api.serve_p50_ms", "backend.api.bytes_out",
			"backend.api.not_modified_ratio", "tsdb.read_p99_ms",
		},
	}
	for name, active := range working {
		t.Run(name, func(t *testing.T) {
			res, err := execute(workloads[name], short(5), true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Result.Correct {
				t.Fatalf("problems: %v", res.Provenance.Problems)
			}
			if len(res.Result.Metrics) != len(c.PerLayer) {
				t.Errorf("%d metrics, want the %d per-layer metrics", len(res.Result.Metrics), len(c.PerLayer))
			}
			for _, m := range c.PerLayer {
				if _, ok := res.Result.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			for _, n := range active {
				if v := res.Result.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s = %v, want work recorded on %s", n, v, name)
				}
			}
		})
	}
}
