// Command benchmark is the repository's benchmark suite: five named
// workloads — four closed-loop HTTP mixes against a spineserve
// subprocess serving a memory-mapped image, one library ingest loop in a
// child process — with every answer checked against a suffix-array
// oracle, exact quantiles from raw samples, and a separate traced run
// that times each layer from outside. BENCHMARK.json at the repository
// root is its contract with the pipeline; README.md here names every
// metric and says which layer should move which.
//
//	go run ./benchmark -seed 1                      # all workloads, end to end
//	go run ./benchmark -seed 1 -workload scan       # one workload
//	go run ./benchmark -seed 1 -trace 1             # traced runs: per-layer metrics, span files
//	go run ./benchmark -seed 1 -repeat 3            # three sets and their spread against the bounds
//	go run ./benchmark -smoke                       # all workloads at 1/20 scale, under 20 s
//
// Run it from the module root. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings and run-scoped state.
type config struct {
	seed       int64
	seconds    float64
	trace      bool
	smoke      bool
	clients    int
	cpu        int    // the one CPU everything runs on; -1 when not confined
	runDir     string // temporary: images, server logs, child files; removed on exit
	outDir     string // benchmark/out: span files, kept
	serverBin  string
	samplesOut string
}

func (c *config) chars() int {
	if c.smoke {
		return corpusChars / smokeDivide
	}
	return corpusChars
}

// scale shrinks an operation count for the smoke pass.
func (c *config) scale(n int) int {
	if c.smoke {
		return max(n/smokeDivide, 1)
	}
	return n
}

func (c *config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// ingestRounds is the fixed round count of a smoke pass; 0 lets
// -seconds decide.
func (c *config) ingestRounds() int {
	if c.smoke {
		return 2
	}
	return 0
}

// note prints one provenance line of a workload.
func (c *config) note(workload, key, val string) {
	fmt.Printf("%-8s # %s: %s\n", workload, key, val)
}

// dumpSamples appends a workload's raw latencies to -samples-out.
func (c *config) dumpSamples(workload string, ss []opSample) {
	if c.samplesOut == "" {
		return
	}
	f, err := os.OpenFile(c.samplesOut, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -samples-out:", err)
		return
	}
	defer f.Close()
	for _, s := range ss {
		fmt.Fprintf(f, "%s\t%d\t%s\t%d\t%d\n", workload, s.op, s.kind, s.latency.Nanoseconds(), s.end.Nanoseconds())
	}
}

// result is one run of one workload: its counts and its named readings
// in print order.
type result struct {
	workload          string
	attempted, failed int
	wrong             int // of failed: answers that differ from the oracle
	firstFailure      string
	metrics           []measured
}

type measured struct {
	name, unit string
	reading
}

func newResult(workload string) *result { return &result{workload: workload} }

// put records a reading; a name put twice keeps its place and takes the
// later value.
func (r *result) put(name, unit string, rd reading) {
	if m := r.get(name); m != nil {
		m.unit, m.reading = unit, rd
		return
	}
	r.metrics = append(r.metrics, measured{name, unit, rd})
}

func (r *result) get(name string) *measured {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			return &r.metrics[i]
		}
	}
	return nil
}

// count adds operations attempted and failed; the first failure message
// is kept.
func (r *result) count(attempted, failed int, first string) {
	r.attempted += attempted
	r.failed += failed
	if r.firstFailure == "" {
		r.firstFailure = first
	}
}

// countWrong is count for failures that are wrong answers.
func (r *result) countWrong(attempted, wrong int, first string) {
	r.count(attempted, wrong, first)
	r.wrong += wrong
}

func (r *result) countLoad(l *loadResult) {
	r.count(l.attempted, l.failed(), l.firstFailure)
	r.wrong += l.wrong
}

func (r *result) print() {
	for _, m := range r.metrics {
		val := "null"
		if m.ok {
			val = fmt.Sprintf("%.6g", m.v)
		}
		line := fmt.Sprintf("%-8s %-36s %14s %-8s", r.workload, m.name, val, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-8s attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	if r.firstFailure != "" {
		fmt.Printf("%-8s FIRST FAILURE: %s\n", r.workload, r.firstFailure)
	}
}

// resultLine is the contract's last line: every metric of specs, by
// name, as measured.
func (r *result) resultLine(specs []metricSpec) (string, error) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(specs))
	for _, sp := range specs {
		m := r.get(sp.Name)
		switch {
		case m == nil:
			return "", fmt.Errorf("%s: metric %s was not measured", r.workload, sp.Name)
		case !m.ok:
			return "", fmt.Errorf("%s: metric %s has too few samples (n=%d); raise -seconds", r.workload, sp.Name, m.n)
		case m.unit != sp.Unit:
			return "", fmt.Errorf("%s: metric %s measured in %s, declared in %s", r.workload, sp.Name, m.unit, sp.Unit)
		}
		ms[sp.Name] = jsonMetric{m.v, sp.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	return string(b), err
}

// runWorkload does one run — untraced or traced — of one workload.
func runWorkload(cfg *config, w *workload) (*result, error) {
	switch {
	case w.gen == nil && cfg.trace:
		return tracedIngest(cfg, w)
	case w.gen == nil:
		return endToEndIngest(cfg, w)
	case cfg.trace:
		return tracedServing(cfg, w)
	default:
		return endToEndServing(cfg, w)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the corpus and of every schedule")
		seconds      = flag.Float64("seconds", runSeconds, "measured time per workload")
		trace        = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and span files instead of end-to-end metrics")
		repeat       = flag.Int("repeat", 0, "run this many sets and report each end-to-end metric's spread against its bound")
		smoke        = flag.Bool("smoke", false, "quick pass of every workload at 1/20 of the corpus")
		samplesOut   = flag.String("samples-out", "", "append raw per-operation latencies to this file (TSV)")
		child        = flag.String("ingest-child", "", "internal: run the ingest rounds described in this directory")
		clients      = flag.Int("clients", defaultClients, "closed-loop client connections of the serving workloads")
		onePin       = flag.Bool("one-cpu", true, "confine the benchmark and the server to one CPU (false: every CPU of the host)")
	)
	flag.Parse()
	if *child != "" {
		if err := ingestChild(*child); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ingest child:", err)
			os.Exit(1)
		}
		return
	}
	cpu := -1
	if *onePin {
		var err error
		if cpu, err = pinToOneCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: not confined to one CPU:", err)
		}
	}
	cfg := &config{
		cpu:  cpu,
		seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, samplesOut: *samplesOut,
		clients: *clients,
		outDir:  filepath.Join("benchmark", "out"),
	}
	if cfg.smoke {
		cfg.seconds = min(cfg.seconds, 1)
	}
	if err := run(cfg, *workloadName, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg *config, workloadName string, repeat int) (err error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the module root (it builds ./cmd/spineserve): %w", err)
	}
	selected := workloads
	if workloadName != "" {
		w := findWorkload(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	// Everything a run leaves lying about lives in runDir, and runDir
	// goes whether the run ends well or not; servers are stopped by the
	// code that started them.
	if cfg.runDir, err = os.MkdirTemp(cfg.outDir, "run-"); err != nil {
		return err
	}
	if cfg.runDir, err = filepath.Abs(cfg.runDir); err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(cfg.runDir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	if cfg.serverBin, err = buildServer(cfg.runDir); err != nil {
		return err
	}
	printProvenance(cfg)

	if repeat > 0 {
		return runRepeat(cfg, selected, repeat)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	failed := false
	for i := range selected {
		w := &selected[i]
		r, err := runWorkload(cfg, w)
		if err != nil {
			return err
		}
		r.print()
		failed = failed || r.failed > 0
		if cfg.smoke {
			continue // a smoke pass is too short for the tail percentiles the result line needs
		}
		line, err := r.resultLine(specs)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if cfg.smoke && failed {
		return fmt.Errorf("smoke pass had failures")
	}
	return nil
}

// runRepeat runs k sets of the selected workloads and reports, per
// workload and end-to-end metric, min, median, max and the spread
// (max-min)/median against the metric's bound.
func runRepeat(cfg *config, selected []workload, k int) error {
	cfg.trace = false              // the bounds are on the end-to-end metrics
	vals := map[string][]float64{} // "workload metric" -> one value per set
	for set := 0; set < k; set++ {
		for i := range selected {
			w := &selected[i]
			r, err := runWorkload(cfg, w)
			if err != nil {
				return err
			}
			if r.failed > 0 {
				return fmt.Errorf("%s: %d of %d failed: %s", w.Name, r.failed, r.attempted, r.firstFailure)
			}
			for _, sp := range endToEnd {
				m := r.get(sp.Name)
				if m == nil || !m.ok {
					return fmt.Errorf("%s: %s was not measured", w.Name, sp.Name)
				}
				vals[w.Name+" "+sp.Name] = append(vals[w.Name+" "+sp.Name], m.v)
			}
			fmt.Printf("set %d %-8s done\n", set+1, w.Name)
		}
	}
	fmt.Printf("\n%-8s %-22s %12s %12s %12s %8s %7s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	over := 0
	for i := range selected {
		for _, sp := range endToEnd {
			vs := vals[selected[i].Name+" "+sp.Name]
			sort.Float64s(vs)
			med := median(vs)
			spread := (vs[len(vs)-1] - vs[0]) / med
			flag := ""
			if spread > sp.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-8s %-22s %12.6g %12.6g %12.6g %7.2f%% %6.1f%%%s\n",
				selected[i].Name, sp.Name, vs[0], med, vs[len(vs)-1], spread*100, sp.Bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d spreads exceed their bounds", over)
	}
	return nil
}
