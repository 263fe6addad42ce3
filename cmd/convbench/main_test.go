package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-machine", "Summit", "-gpus", "1", "-sizes", "16384"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Fig 8: STC vs TTC on 1×V100", "STC/TTC speedup at N=16384"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBadMachine(t *testing.T) {
	if err := run([]string{"-machine", "Frontier"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown machine must fail")
	}
}

func TestRunPlanCacheSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-machine", "Summit", "-gpus", "1", "-sizes", "8192", "-plan-cache"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan cache:") {
		t.Errorf("missing plan-cache counters:\n%s", out.String())
	}
}

func TestRunWorkersMatchesSerial(t *testing.T) {
	args := []string{"-machine", "Summit", "-gpus", "1", "-sizes", "8192,16384"}
	var serial, par bytes.Buffer
	if err := run(args, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "2"), &par); err != nil {
		t.Fatal(err)
	}
	// The parallel run appends a sweep summary; the tables must be identical.
	if !strings.HasPrefix(par.String(), serial.String()) {
		t.Errorf("-workers 2 changed the tables:\nserial:\n%s\nparallel:\n%s", serial.String(), par.String())
	}
	if !strings.Contains(par.String(), "sweep: ") {
		t.Errorf("missing sweep summary:\n%s", par.String())
	}
}

func TestRunSolverDirectByteIdentical(t *testing.T) {
	// -solver direct must be a no-op: the default path's bytes, unchanged.
	args := []string{"-machine", "Summit", "-gpus", "1", "-sizes", "8192,16384"}
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
	if err := run([]string{"-machine", "Summit", "-gpus", "1", "-sizes", "8192", "-solver", "cg"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"solver backend: cg", "Fig 8: STC vs TTC on 1×V100"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSolverUnknown(t *testing.T) {
	if err := run([]string{"-sizes", "8192", "-solver", "qr"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown -solver must fail")
	}
}
