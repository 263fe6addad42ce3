package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runOut runs one command line through the dispatcher and returns stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("geompc %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestCommands drives every subcommand through the dispatcher at toy sizes:
// a case either must fail (with `errWant` set: with that text in the error
// and nothing on stdout), or must print every `want` and none of `not`.
// Subtests are named <subcommand>/<case>, so `-run '/trace'` selects one
// subcommand and `-run 'TestCommands//flag-gone'` one theme.
func TestCommands(t *testing.T) {
	cases := []struct {
		name    string // <subcommand>/<case>; the subcommand is args[0]
		args    string // flags, space-separated
		fail    bool
		errWant string
		want    []string
		not     []string
	}{
		{name: "fit/smoke", args: "-n 64 -ts 32 -ureq 1e-4",
			want: []string{"generated 64 2D-Matern locations", "fit (adaptive MP @ u_req=1e-04)", "simulated cost"}},
		{name: "fit/bad-kernel", args: "-kernel 5D-nope", fail: true},
		{name: "fit/negative-n", args: "-n -3", fail: true, errWant: "need at least one location, got n=-3"}, // not a makeslice panic
		{name: "fit/nan-ureq", args: "-n 50 -ureq NaN", fail: true, errWant: "u_req"},                        // not run as "exact FP64"
		{name: "fit/negative-ureq", args: "-n 36 -ureq -1", fail: true, errWant: "u_req"},                    // nothing printed first
		{name: "fit/negative-ts", args: "-n 100 -ts -5", fail: true, errWant: "tile size must be positive"},  // not run at the default
		{name: "fit/zero-gpus", args: "-n 36 -ts 18 -gpus 0",
			want: []string{"on 6×V100:"}}, // the label names what was simulated
		{name: "fit/negative-gpus", args: "-n 36 -ts 18 -gpus -2", fail: true, errWant: "negative GPUs per rank -2"},

		{name: "trace/smoke", args: "-nt 4 -gpus 2",
			want: []string{"simulated schedule, NT=4, 2 V100s", "makespan", "schedule digest"}},
		{name: "trace/metrics", args: "-nt 4 -gpus 2 -metrics",
			want: []string{"\nmetrics:\n", "\nmakespan                   0.0184618", "\nbytes h2d FP16             50331648\n"}},
		{name: "trace/gpus-0-is-whole-node", args: "-nt 4 -gpus 0",
			want: []string{"simulated schedule, NT=4, 6 V100s"}}, // the header names what was simulated
		{name: "trace/negative-gpus", args: "-gpus -1", fail: true, errWant: "negative GPUs per rank -1"},
		{name: "trace/faults-flag-gone", args: "-faults x", fail: true, errWant: "flag provided but not defined: -faults"},
		{name: "trace/plan-cache-flag-gone", args: "-plan-cache", fail: true, errWant: "flag provided but not defined: -plan-cache"},
		{name: "trace/solver-flag-gone", args: "-solver cg", fail: true, errWant: "flag provided but not defined: -solver"},

		{name: "convbench/smoke", args: "-machine Summit -gpus 1 -sizes 16384",
			want: []string{"Fig 8: STC vs TTC on 1×V100", "STC/TTC speedup at N=16384"}},
		{name: "convbench/bad-machine", args: "-machine Frontier", fail: true},
		{name: "convbench/plan-cache-flag-gone", args: "-plan-cache", fail: true, errWant: "flag provided but not defined: -plan-cache"},
		{name: "convbench/workers-flag-gone", args: "-workers 2", fail: true, errWant: "flag provided but not defined: -workers"},
		{name: "convbench/gpus-0-is-whole-node", args: "-machine Summit -gpus 0 -sizes 8192",
			want: []string{"Fig 11: STC vs TTC on 6×V100"}}, // the heading names what was simulated
		{name: "convbench/solver-flag-gone", args: "-solver direct", fail: true, errWant: "flag provided but not defined: -solver"},

		{name: "scale/smoke", args: "-weak -nodes 1 -base-n 8192",
			want: []string{"Fig 12a: weak scalability"}},
		{name: "scale/strong-smoke", args: "-strong -nodes 1 -strong-n 8192",
			want: []string{"Fig 12b: strong scalability"}},
		{name: "scale/weak-bad-tile-size", args: "-weak -ts 0", fail: true}, // an error, not a divide-by-zero panic
		{name: "scale/workers-flag-gone", args: "-workers 2", fail: true, errWant: "flag provided but not defined: -workers"},

		{name: "power/smoke", args: "-fig10 -machine Summit -n 16384",
			want: []string{"Fig 10: power/energy on one V100 (N=16384)", "max TDP on V100"}},
		{name: "power/bad-machine", args: "-fig10 -machine Frontier", fail: true},
		{name: "power/no-bins", args: "-occupancy -n 8192 -bins 0", fail: true}, // not "mean occupancy NaN%"

		{name: "precmap/smoke", args: "-demo -comm -demo-n 1024 -demo-ts 256",
			want: []string{"Fig 2a: kernel-precision map", "Fig 2b: storage-precision map", "Fig 4b: communication-precision map"}},
		{name: "precmap/bad-app", args: "-demo -app 4D-nope", fail: true},
		{name: "precmap/zero-samples", args: "-fig7 -n 8192 -ts 1024 -samples 0", fail: true, errWant: "got 0"},       // not 0/0 norms read as 100% FP64
		{name: "precmap/negative-samples", args: "-fig7 -n 8192 -ts 1024 -samples -1", fail: true, errWant: "got -1"}, // not a panic

		{name: "gemmbench/smoke", args: "-table1 -table2",
			want: []string{"Table I: peak performance", "Table II: time measurement on V100"}},
		{name: "gemmbench/bad-sizes", args: "-fig1 -acc-sizes 64,nope", fail: true},

		{name: "accuracy/smoke", args: "-dim 2 -replicas 2 -n 48 -ts 16 -levels 0,1e-2 -case sqexp -maxevals 4",
			want: []string{"2D-sqexp weak", "2 replicas of n=48", "exact", "1e-02"}},
		{name: "accuracy/bad-dim", args: "-dim 4", fail: true},
		{name: "accuracy/negative-level", args: "-levels -1 -replicas 1 -n 48 -ts 16 -maxevals 2", fail: true},               // not run as "exact"
		{name: "accuracy/nan-level", args: "-levels NaN -replicas 1 -n 48 -ts 16 -maxevals 2", fail: true, errWant: "u_req"}, // not run as "exact"
		{name: "accuracy/inf-level", args: "-levels Inf -replicas 1 -n 48 -ts 16 -maxevals 2", fail: true, errWant: "u_req"}, // not a "+Inf" row

		{name: "ablation/chaos-flag-gone", args: "-chaos", fail: true, errWant: "flag provided but not defined: -chaos"},
		{name: "ablation/lookahead-smoke", args: "-lookahead -n 16384",
			want: []string{"lookahead"}},
		{name: "ablation/probe-smoke", args: "-probe -probe-n 64",
			want: []string{"u_req probe: 2D-sqexp, n=64, 8 datasets", "u_req probe: 2D-Matern, n=64, 8 datasets",
				"u_req  mean |Δ(-loglik)|", "exact  0", "1e-02  0"}},
		{name: "ablation/plan-flag-gone", args: "-plan", fail: true, errWant: "flag provided but not defined: -plan"},
		{name: "ablation/solvers-flag-gone", args: "-solvers", fail: true, errWant: "flag provided but not defined: -solvers"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{c.name[:strings.IndexByte(c.name, '/')]}, strings.Fields(c.args)...)
			var out bytes.Buffer
			err := run(args, &out)
			if c.fail {
				if err == nil {
					t.Fatalf("geompc %s must fail", strings.Join(args, " "))
				}
				if c.errWant != "" && (!strings.Contains(err.Error(), c.errWant) || out.Len() != 0) {
					t.Errorf("error %q must contain %q with nothing on stdout, got %q", err, c.errWant, out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			s := out.String()
			for _, want := range c.want {
				if !strings.Contains(s, want) {
					t.Errorf("output missing %q:\n%s", want, s)
				}
			}
			for _, not := range c.not {
				if strings.Contains(s, not) {
					t.Errorf("output must not contain %q:\n%s", not, s)
				}
			}
		})
	}
}

// TestTraceChrome: -chrome writes the printed run's own timeline — valid
// trace-event JSON whose spans carry the factorization's task names.
func TestTraceChrome(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.json")
	out := runOut(t, "trace", "-nt", "4", "-gpus", "2", "-chrome", file)
	if !strings.Contains(out, "chrome trace written to "+file) {
		t.Errorf("output does not name the trace file:\n%s", out)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name] = true
		}
	}
	for _, task := range []string{"POTRF(0)", "TRSM(1,0)", "SYRK(1,0)", "GEMM(2,1,0)", "POTRF(3)"} {
		if !spans[task] {
			t.Errorf("chrome trace has no span named %s", task)
		}
	}
}

// TestSweepsIndependentOfGOMAXPROCS: the commands size their sweep pools
// from GOMAXPROCS, and what they print does not depend on it.
func TestSweepsIndependentOfGOMAXPROCS(t *testing.T) {
	for _, args := range [][]string{
		{"convbench", "-machine", "Summit", "-gpus", "1", "-sizes", "8192,16384"},
		{"scale", "-nodes", "1,2", "-base-n", "8192", "-strong-n", "8192", "-mp-nodes", "2", "-sizes", "8192,16384"},
		{"accuracy", "-replicas", "2", "-n", "48", "-ts", "16", "-levels", "0,1e-2", "-case", "sqexp weak", "-maxevals", "4"},
	} {
		args := args
		t.Run(args[0], func(t *testing.T) {
			at := func(procs int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return runOut(t, args...)
			}
			if one, four := at(1), at(4); one != four {
				t.Errorf("output differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", one, four)
			}
		})
	}
}

// fig12cSmall is the stdout of `geompc scale -mp -mp-nodes 2 -sizes
// 16384,32768`. Its application rows are the only precision maps drawn
// from 64 tile-norm samples (every other figure draws 128), and no
// results/ file the golden test regenerates covers Fig 12.
const fig12cSmall = `## Fig 12c: MP effect on 2 nodes (12 GPUs)
Config     N      Tflop/s  Speedup vs FP64  Time(s)
---------  -----  -------  ---------------  -------
FP64       16384  18.121   1                0.081
FP64       32768  52.707   1                0.223
FP32       16384  36.144   1.995            0.041
FP32       32768  105.4    1.999            0.111
2D-sqexp   16384  30.104   1.661            0.049
2D-sqexp   32768  91.015   1.727            0.129
2D-Matern  16384  18.41    1.016            0.08
2D-Matern  32768  51.648   0.98             0.227
3D-sqexp   16384  18.496   1.021            0.079
3D-sqexp   32768  55.323   1.05             0.212

`

// TestScaleMPPinned pins a small Fig 12c table byte for byte.
func TestScaleMPPinned(t *testing.T) {
	if got := runOut(t, "scale", "-mp", "-mp-nodes", "2", "-sizes", "16384,32768"); got != fig12cSmall {
		t.Errorf("Fig 12c output changed:\n%s", got)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("16384, 32768,49152")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16384, 32768, 49152}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "12,abc", "12,,13", "0", "-4", "12;13"} {
		if out, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) = %v, want error", bad, out)
		}
	}
}

// TestDispatch: there is no default subcommand. Nothing and an unknown name
// are errors that list all nine subcommands; help prints the same table.
func TestDispatch(t *testing.T) {
	if len(commands) != 9 {
		t.Fatalf("%d subcommands, want 9", len(commands))
	}
	listsAll := func(s string) {
		t.Helper()
		for _, c := range commands {
			if !strings.Contains(s, "\n  "+c.name+" ") {
				t.Errorf("usage does not list %s:\n%s", c.name, s)
			}
		}
	}
	for _, args := range [][]string{nil, {"tracee"}, {"-nt", "4"}} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Fatalf("geompc %v must fail", args)
		}
		if out.Len() != 0 {
			t.Errorf("geompc %v wrote to stdout: %q", args, out.String())
		}
		listsAll(err.Error())
	}
	listsAll(runOut(t, "help"))
}

// TestResultsGolden regenerates the committed figures that take a few
// seconds or less and compares stdout to results/ byte for byte. The
// argument lists are read from the Makefile's `experiments` target, so the
// files, the target and the binary cannot drift apart.
func TestResultsGolden(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "$(GO) run ./cmd/geompc "
	argsFor := map[string][]string{} // results file → argument list
	for _, line := range strings.Split(string(mk), "\n") {
		line = strings.TrimSpace(line)
		if cmd, file, ok := strings.Cut(line, " > results/"); ok && strings.HasPrefix(cmd, prefix) {
			argsFor[file] = strings.Fields(strings.TrimPrefix(cmd, prefix))
		}
	}
	for _, c := range []struct {
		file string
		slow bool // over half a second: skipped under -short
	}{
		{"fig1_tables.txt", true},
		{"fig2_4_maps.txt", false},
		{"fig3_trace.txt", false},
		{"fig7.txt", true},
		{"fig8a_v100.txt", false},
		{"fig8b_a100.txt", false},
		{"fig8c_h100.txt", false},
		{"fig9_occupancy.txt", false},
		{"fig10_energy.txt", true},
		{"fig11a_summitnode.txt", true},
		{"fig11b_guyotnode.txt", true},
		{"ablation.txt", true},
	} {
		c := c
		t.Run(strings.TrimSuffix(c.file, ".txt"), func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("slow figure")
			}
			args := argsFor[c.file]
			if args == nil {
				t.Fatalf("make experiments does not write results/%s", c.file)
			}
			want, err := os.ReadFile(filepath.Join(root, "results", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := runOut(t, args...); got != string(want) {
				t.Errorf("geompc %s no longer reproduces results/%s:\n%s", strings.Join(args, " "), c.file, got)
			}
		})
	}
}
