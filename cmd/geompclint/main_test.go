package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the smoke tests. files maps
// relative path → contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module smoketest\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunFlagsSeededViolation: the binary exits nonzero and names the
// violation when a virtual-clock package reads the wall clock and leaks map
// order.
func TestRunFlagsSeededViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"runtime/clock.go": `package runtime

import "time"

func Tick(m map[int]int) (int64, []int) {
	var order []int
	for k := range m {
		order = append(order, k)
	}
	return time.Now().UnixNano(), order
}
`,
	})
	var out bytes.Buffer
	err := run([]string{"-dir", dir, "./..."}, &out)
	if err == nil {
		t.Fatalf("want nonzero exit on seeded violations, got clean run:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "2 issue(s)") {
		t.Errorf("want 2 issues in the error, got %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"deterflow: time.Now in a virtual-clock package",
		"deterflow: range over map m",
		"clock.go:7:2", // the range statement's position
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunCleanModule: a module with no violations exits zero and reports
// the package count.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"geo/geo.go": `package geo

func Dist(a, b float64) float64 { return a - b }
`,
	})
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "./..."}, &out); err != nil {
		t.Fatalf("clean module flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 package(s) clean") {
		t.Errorf("missing clean summary:\n%s", out.String())
	}
}

// TestRunList describes the suite, nolint meta-analyzer included.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"deterflow", "hotalloc", "lockcheck", "precflow", "nolint"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunBadPattern surfaces go list errors instead of reporting clean.
func TestRunBadPattern(t *testing.T) {
	dir := writeModule(t, map[string]string{})
	if err := run([]string{"-dir", dir, "./nonexistent/"}, &bytes.Buffer{}); err == nil {
		t.Fatal("want an error for a pattern matching nothing")
	}
}
