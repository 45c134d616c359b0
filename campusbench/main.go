// Command campusbench is the end-to-end benchmark of the HAWC-CC campus:
// real pole.Node pipelines and one backend.Server wired as cmd/polesim
// wires them, driven by a seeded load generator in the same process.
//
//	bash campusbench/run.sh --workload pole-stream --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once with spans around every call
// into the modules, and prints the per-layer metrics. Either way it
// checks the campus's outputs, prints a provenance line and then, as its
// last line, one JSON object with correct, attempted, failed and
// metrics. A failed check prints correct=false and exits 1. README.md
// describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart is the zero of the first set-up's clock.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("campusbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: "+workloadNames())
	seed := fset.Int64("seed", 1, "workload seed: frames, fleet counts and the dashboard mix derive from it")
	seconds := fset.Float64("seconds", 15, "measured seconds: paced load with saturation bursts in it")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fset.String("out", "", "directory for the provenance record and spans (empty: none)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "campusbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "campusbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds}
	res, err := execute(wl, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "campusbench:", err)
		return 1
	}
	if *trace == 0 {
		// A p99 needs ten samples beyond it; a shorter run publishes none.
		for _, name := range []string{"visible_ms", "ack_ms", "query_ms"} {
			if d := res.Provenance.Samples[name]; !d.hasP99() {
				fmt.Fprintf(stderr, "campusbench: %s has %d samples, fewer than the 1000 a p99 needs; run longer\n", name, d.N)
				return 1
			}
		}
	}
	if *out != "" {
		if err := res.save(*out); err != nil {
			fmt.Fprintln(stderr, "campusbench:", err)
			return 1
		}
	}
	for _, p := range res.Provenance.Problems {
		fmt.Fprintln(stderr, "campusbench: check failed:", p)
	}
	prov, err := json.Marshal(res.Provenance)
	if err != nil {
		fmt.Fprintln(stderr, "campusbench:", err)
		return 1
	}
	line, err := json.Marshal(res.Result)
	if err != nil {
		fmt.Fprintln(stderr, "campusbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n%s\n", prov, line)
	if !res.Result.Correct {
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance records what produced a result.
type provenance struct {
	Workload     string          `json:"workload"`
	Seed         int64           `json:"seed"`
	Trace        bool            `json:"trace"`
	Seconds      float64         `json:"seconds"`
	Bursts       int             `json:"bursts"`
	BurstS       float64         `json:"burst_s_each"`
	QuietS       float64         `json:"latency_measured_s"`
	Commit       string          `json:"commit"`
	SourceSHA256 string          `json:"source_sha256"`
	GoVersion    string          `json:"go_version"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	NumCPU       int             `json:"nproc"`
	CPU          string          `json:"cpu"`
	Setups       []float64       `json:"setup_s_each"`
	PoleRate     float64         `json:"paced_frames_per_s_per_pole"`
	FleetPoles   int             `json:"fleet_poles"`
	FleetRate    float64         `json:"paced_reports_per_s"`
	PollPeriodMs float64         `json:"visible_poll_period_ms"`
	Samples      map[string]dist `json:"samples"`
	Ops          counts          `json:"ops"`
	Problems     []string        `json:"problems,omitempty"`
	GeneratorLag dist            `json:"generator_lag_ms"`
}

type outcome struct {
	Result     result     `json:"result"`
	Provenance provenance `json:"provenance"`
	rec        *recorder
}

// save writes the provenance record (and spans of a traced run).
func (r *outcome) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := r.Provenance
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", p.Workload, p.Seed, btoi(p.Trace)))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.rec != nil {
		return r.rec.writeTo(base + "-spans.csv")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pass is one set-up and drive of a workload.
type pass struct {
	c      *campus
	ob     *runObs
	ref    reference
	m      *measurement
	setups []float64
}

// runPass sets the campus up o.setups times (timing each, keeping the
// last), drives it and measures it.
func runPass(wl workload, o options, rec *recorder, from time.Time) (*pass, error) {
	p := &pass{}
	for rep := 0; rep < o.setups; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = from
		}
		c, err := setUp(wl, o, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if rep < o.setups-1 {
			c.close()
			continue
		}
		p.c = c
	}
	defer p.c.close()
	ob, err := p.c.drive()
	if err != nil {
		return nil, err
	}
	p.ob = ob
	p.ref = computeReference(p.c)
	p.m = measure(p.c, ob, p.ref, p.setups)
	return p, nil
}

// execute runs a workload: the measured pass, or for a traced run an
// untraced pass followed by a traced one.
func execute(wl workload, o options, traced bool) (*outcome, error) {
	o = o.withDefaults()
	wl = wl.scaled(o)
	res := &outcome{Provenance: provenance{
		Workload: wl.name, Seed: o.seed, Trace: traced, Seconds: o.seconds,
		Commit: commit(), SourceSHA256: sourceHash(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		PoleRate: wl.poleRate, FleetPoles: wl.fleetPoles, FleetRate: wl.fleetRate,
		PollPeriodMs: float64(wl.pollPeriod) / float64(time.Millisecond),
	}}
	if !traced {
		p, err := runPass(wl, o, nil, processStart)
		if err != nil {
			return nil, err
		}
		res.fill(p, p.m.metrics, p.m.dists)
		return res, nil
	}
	o.setups = 1
	plain, err := runPass(wl, o, nil, processStart)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	tp, err := runPass(wl, o, rec, time.Now())
	if err != nil {
		return nil, err
	}
	layers, dists := layerMeasure(tp.c, tp.ob, tp.ref, tp.m, plain.m)
	for k, v := range tp.m.dists {
		dists[k] = v
	}
	res.fill(tp, layers, dists)
	res.rec = rec
	// Both passes must pass the checks.
	if len(plain.m.problems) > 0 {
		res.Result.Correct = false
		res.Provenance.Problems = append(plain.m.problems, res.Provenance.Problems...)
	}
	return res, nil
}

// fill sets the result line and provenance from a pass.
func (r *outcome) fill(p *pass, metrics map[string]metric, dists map[string]dist) {
	r.Result = result{
		Correct:   len(p.m.problems) == 0,
		Attempted: p.m.ops.Attempted,
		Failed:    p.m.ops.Failed,
		Metrics:   metrics,
	}
	r.Provenance.Setups = p.setups
	r.Provenance.QuietS = p.c.sched.quietSeconds()
	if n := len(p.c.sched.bursts); n > 0 {
		b := p.c.sched.bursts[0]
		r.Provenance.Bursts, r.Provenance.BurstS = n, float64(b.to-b.from)/1e9
	}
	r.Provenance.Samples = dists
	r.Provenance.Ops = p.m.ops
	r.Provenance.Problems = p.m.problems
	r.Provenance.GeneratorLag = summarize(pacedLag(p.c, p.ob))
}

// commit names the source revision when the checkout is a git work tree.
func commit() string {
	const unknown = "unknown (not a git checkout; see source_sha256)"
	root, err := moduleRoot()
	if err != nil {
		return unknown
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return unknown
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return unknown
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources and module files of the
// checkout, which identifies the code measured when there is no git.
func sourceHash() string {
	root, err := moduleRoot()
	if err != nil {
		return "unknown"
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// moduleRoot finds the hawccc module root from the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module hawccc\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("hawccc module root not found")
		}
		dir = parent
	}
}

// cpuModel reads the CPU model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
