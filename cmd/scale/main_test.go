package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-weak", "-nodes", "1", "-base-n", "8192"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 12a: weak scalability") {
		t.Errorf("missing weak-scaling table:\n%s", out.String())
	}
}

func TestRunFaultsSmoke(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-strong", "-nodes", "1", "-strong-n", "8192", "-faults", "slow:dev=0,from=0,to=1,x=4"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 12b: strong scalability") {
		t.Errorf("missing strong-scaling table:\n%s", out.String())
	}
}

func TestRunWorkersMatchesSerial(t *testing.T) {
	args := []string{"-weak", "-nodes", "1,2", "-base-n", "8192"}
	var serial, par bytes.Buffer
	if err := run(args, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "2"), &par); err != nil {
		t.Fatal(err)
	}
	// The parallel run appends a sweep summary; the table must be identical.
	if !strings.HasPrefix(par.String(), serial.String()) {
		t.Errorf("-workers 2 changed the table:\nserial:\n%s\nparallel:\n%s", serial.String(), par.String())
	}
	if !strings.Contains(par.String(), "sweep: ") {
		t.Errorf("missing sweep summary:\n%s", par.String())
	}
}
