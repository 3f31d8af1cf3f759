// Command bench is SyRep's benchmark: five workloads that drive the program
// through its public entry points — cold synthesis bound by BDD repair or by
// brute-force verification, all-destinations batches, open-loop link churn
// through the controller, and open-loop HTTP traffic against the service —
// and report end-to-end metrics, or per-layer metrics from a traced run.
//
// Run from this directory (or via run.sh from the repository root):
//
//	go run .                          every workload, each in a child process
//	go run . -workload churn -seed 3  one workload in this process
//	go run . -trace 1                 the traced run: per-layer metrics + spans
//
// Output is one "workload metric value unit" line per metric, notes on lines
// starting with '#', and, as the last line, a JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when a
// correctness or run-validity check fails. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"syrep/internal/obs"
)

// defaultSeconds is the timed-phase length; BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// A measured run sets up at least measuredSetups times, and again while
// less than setupBudget of set-up has run, up to maxSetups times; setup_s is
// the median. A set-up of a tenth of a second is noisy, so the cheap
// workloads set up more often.
const (
	measuredSetups = 3
	maxSetups      = 9
	setupBudget    = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "timed-phase length on the reference host; sizes every workload's op count")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a span file")
	jsonPath := fs.String("json", "", "also write the results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-json file]")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: measuredSetups, setupBudget: setupBudget}
	if *name == "" {
		return runAll(cfg, *jsonPath, stdout, stderr)
	}
	if _, ok := findSpec(*name); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and prints its metric lines;
// the caller prints the result line.
func runWorkload(cfg config, out io.Writer) (result, error) {
	sp, _ := findSpec(cfg.workload)
	if cfg.trace {
		// The traced run measures an untraced and a traced phase, each
		// half as long, so the tracing overhead is visible.
		cfg.seconds /= 2
	}
	w := sp.build(cfg)
	defer w.close()

	// The traced run reports no setup_s, so it sets up once.
	if cfg.trace {
		cfg.setups, cfg.setupBudget = 1, 0
	}
	var setups []float64
	var spent time.Duration
	for i := 0; i < max(1, cfg.setups) || (spent < cfg.setupBudget && i < maxSetups); i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := w.setup(nil, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	refBefore := hostRefMs()
	plain := newPhase(nil)
	if err := w.run(plain); err != nil {
		return result{}, err
	}

	report, values, units := plain, map[string]float64{}, endToEnd
	var traced *phase
	if cfg.trace {
		tr := newTracer()
		var o *obs.Observer
		if sp.open {
			o = obs.New(tr)
		}
		if err := w.setup(o, tr); err != nil {
			return result{}, fmt.Errorf("traced set-up: %w", err)
		}
		traced = newPhase(tr)
		traced.o = o
		if err := w.run(traced); err != nil {
			return result{}, err
		}
		report, units = traced, perLayer
		spans := tr.link()
		values = traced.layerValues(spans)
		path := filepath.Join(os.TempDir(), fmt.Sprintf("syrep-bench-spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, cfg.workload, cfg.seed, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# %s: %d spans written to %s\n", cfg.workload, len(spans), path)
	}
	refAfter := hostRefMs()

	bad, problems := w.check()
	for _, p := range problems {
		fmt.Fprintf(out, "# %s: CHECK FAILED: %s\n", cfg.workload, p)
	}
	invalid := plain.invalid()
	if traced != nil {
		if why := traced.invalid(); why != "" {
			invalid = strings.Trim(invalid+"; "+why, "; ")
		}
	}
	if invalid != "" {
		fmt.Fprintf(out, "# %s: RUN INVALID: %s\n", cfg.workload, invalid)
	}

	if traced == nil {
		values = plain.endToEndValues(median(setups))
		fmt.Fprintf(out, "%s fail_ratio %s ratio\n", cfg.workload, num(values["fail_ratio"]))
		if sp.open {
			fmt.Fprintf(out, "%s bench.gen_lag_ms_p99 %s ms\n", cfg.workload, num(percentile(plain.lags, 0.99)))
		}
	} else {
		overhead := ratio(median(traced.lat), median(plain.lat))
		values["bench.trace_overhead_ratio"] = overhead
		values["bench.host_ref_ms"] = (refBefore + refAfter) / 2
		if overhead < 0.9 || overhead > 1.1 {
			fmt.Fprintf(out, "# %s: FLAG trace overhead %.3f is outside 0.9-1.1: the per-layer numbers describe the traced run (p50 %.3gms), not the untraced one (p50 %.3gms)\n",
				cfg.workload, overhead, median(traced.lat), median(plain.lat))
		}
	}
	fmt.Fprintf(out, "# %s: %d ops, host_ref_ms before %.3f after %.3f (drift %+.1f%%)\n",
		cfg.workload, report.ops(), refBefore, refAfter, 100*ratio(refAfter-refBefore, refBefore))

	res := result{
		Correct:   bad == 0 && invalid == "",
		Attempted: report.ops(),
		Failed:    report.failed() + bad,
		Metrics:   map[string]metric{},
	}
	for _, m := range units {
		v := values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%s %s %s %s\n", cfg.workload, m.name, num(v), m.unit)
	}
	return res, nil
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// runAll runs every workload in its own child process (this binary,
// re-executed with -workload), relays their metric lines, and fails when any
// child fails.
func runAll(cfg config, jsonPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	all := map[string]result{}
	code := 0
	var flagged []string
	for _, sp := range specs {
		args := []string{"-workload", sp.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
		if cfg.trace {
			args[len(args)-1] = "1"
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		res, lines, perr := splitResult(buf.Bytes())
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		if perr != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (%v)\n", sp.name, perr, runErr)
			code = 1
			continue
		}
		all[sp.name] = res
		if runErr != nil || !res.Correct {
			fmt.Fprintf(stderr, "bench: %s failed: %v\n", sp.name, runErr)
			code = 1
		}
		if m, ok := res.Metrics["bench.trace_overhead_ratio"]; ok && (m.Value < 0.9 || m.Value > 1.1) {
			flagged = append(flagged, fmt.Sprintf("%s (%.3f)", sp.name, m.Value))
		}
	}
	if len(flagged) > 0 {
		fmt.Fprintf(stdout, "# trace overhead outside 0.9-1.1, per-layer numbers describe the traced run only: %s\n", strings.Join(flagged, ", "))
	}
	if jsonPath != "" {
		doc := struct {
			Seed      int64             `json:"seed"`
			Seconds   float64           `json:"seconds"`
			Trace     bool              `json:"trace"`
			Workloads map[string]result `json:"workloads"`
		}{cfg.seed, cfg.seconds, cfg.trace, all}
		if err := writeJSON(jsonPath, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// splitResult separates a child's output into its metric lines and its
// final result line.
func splitResult(out []byte) (result, []string, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return result{}, nil, errors.New("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, lines, fmt.Errorf("no result line: %w", err)
	}
	return res, lines[:len(lines)-1], nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
