package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nt", "4", "-gpus", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"simulated schedule, NT=4", "makespan", "schedule digest"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "faults:") {
		t.Error("fault-free run must not print a faults line")
	}
}

func TestRunChaosSmoke(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-nt", "5", "-gpus", "3", "-audit", "-faults", "kill:dev=1,at=0.0001"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "faults: 1 device failure(s)") {
		t.Errorf("chaos run missing recovery summary:\n%s", out.String())
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	if err := run([]string{"-faults", "kill:dev=99,at=0.5"}, &bytes.Buffer{}); err == nil {
		t.Fatal("out-of-range fault device must fail")
	}
}

func TestRunPlanCacheSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nt", "4", "-gpus", "2", "-plan-cache"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan cache: 1 hit(s), 1 miss(es)") {
		t.Errorf("missing plan-cache counters:\n%s", out.String())
	}
}

func TestRunPlanCacheFaultsBypass(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-nt", "5", "-gpus", "3", "-plan-cache", "-faults", "kill:dev=1,at=0.0001"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 bypass(es)") {
		t.Errorf("armed run must bypass the cache twice:\n%s", out.String())
	}
}

func TestRunPlanCacheRefusesChrome(t *testing.T) {
	if err := run([]string{"-plan-cache", "-chrome", "/dev/null"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-plan-cache with -chrome must fail")
	}
}

func TestRunSolverDirectByteIdentical(t *testing.T) {
	// -solver direct must be a no-op: the default path's bytes, unchanged.
	args := []string{"-nt", "4", "-gpus", "2"}
	var def, direct bytes.Buffer
	if err := run(args, &def); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-solver", "direct"), &direct); err != nil {
		t.Fatal(err)
	}
	if def.String() != direct.String() {
		t.Errorf("-solver direct changed the output:\ndefault:\n%s\ndirect:\n%s", def.String(), direct.String())
	}
}

func TestRunSolverCGSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nt", "2", "-gpus", "2", "-solver", "cg", "-iters", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"simulated cg schedule, NT=2", "SPMV(0,", "ALPHA(0)", "iterations", "converged true"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "SPMV(1,") {
		t.Errorf("-iters 1 leaked iteration 1 tasks:\n%s", s)
	}
}

func TestRunSolverCGPlanCache(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nt", "2", "-gpus", "2", "-solver", "cg", "-plan-cache"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay digest verified") {
		t.Errorf("missing plan-cache replay check:\n%s", out.String())
	}
}

func TestRunSolverUnknown(t *testing.T) {
	if err := run([]string{"-solver", "qr"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown -solver must fail")
	}
}

func TestRunSolverCGChromeRejected(t *testing.T) {
	if err := run([]string{"-solver", "cg", "-chrome", "/tmp/x.json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-chrome with -solver cg must fail")
	}
}
