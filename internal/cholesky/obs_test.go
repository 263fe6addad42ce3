package cholesky

import (
	"bytes"
	"encoding/json"
	"reflect"
	gort "runtime"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// buildNumericConfig assembles two identical numeric configurations: nt
// tiles of 16 over a sqexp covariance, adaptive maps at u_req 1e-6.
func buildNumericConfig(t *testing.T, nt int, ranks, devPerRank int) (Config, Config) {
	t.Helper()
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(21, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	pg, qg := tile.SquarestGrid(ranks)
	d, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		mat := tile.NewMatrix(d, false)
		mat.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
		})
		maps := precmap.New(precmap.FromMatrix(mat, 1e-6, prec.CholeskySet), 1e-6)
		mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
		plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: Auto}
	}
	return mk(), mk()
}

// TestDigestEqualAcrossGOMAXPROCS is the determinism satellite: the virtual
// schedule must be bit-identical whether the numeric task bodies run on one
// OS thread or eight, and the run digest must prove it.
func TestDigestEqualAcrossGOMAXPROCS(t *testing.T) {
	cfgA, cfgB := buildNumericConfig(t, 6, 2, 2)
	cfgA.Audit = true
	cfgB.Audit = true

	prev := gort.GOMAXPROCS(1)
	resA, errA := Run(cfgA)
	gort.GOMAXPROCS(8)
	resB, errB := Run(cfgB)
	gort.GOMAXPROCS(prev)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if resA.Digest() != resB.Digest() {
		t.Errorf("schedule digests differ across GOMAXPROCS: %016x vs %016x",
			resA.Digest(), resB.Digest())
	}
	if resA.Digest() == 0 {
		t.Error("digest is zero — nothing was hashed")
	}
	if !reflect.DeepEqual(resA.Stats, resB.Stats) {
		t.Errorf("stats differ across GOMAXPROCS:\n%+v\n%+v", resA.Stats, resB.Stats)
	}
	a := cfgA.Matrix.LowerToDense()
	b := cfgB.Matrix.LowerToDense()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("factor differs at %d across GOMAXPROCS", i)
		}
	}
}

// TestAuditedMultiRankRun exercises the invariant auditor on a scenario
// with STC conversions, D2H publishes and network broadcasts. Audit failures
// surface as Run errors.
func TestAuditedMultiRankRun(t *testing.T) {
	cfg, _ := buildNumericConfig(t, 6, 4, 1)
	cfg.Audit = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("audited multi-rank run failed: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.BytesNet == 0 {
		t.Error("4-rank run moved no network bytes — scenario too weak")
	}
}

// TestMetricsPopulated checks the engine's registry carries the run's
// observability counters after a factorization.
func TestMetricsPopulated(t *testing.T) {
	cfg, _ := buildNumericConfig(t, 6, 2, 1)
	cfg.Trace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if got := m.Counter("engine/tasks").Value(); int(got) != res.Stats.Tasks {
		t.Errorf("engine/tasks = %d, stats say %d", got, res.Stats.Tasks)
	}
	var h2d int64
	for _, metric := range m.Snapshot() {
		if len(metric.Name) > 16 && metric.Name[:16] == "engine/bytes_h2d" {
			h2d += int64(metric.Value)
		}
	}
	if h2d != res.Stats.BytesH2D {
		t.Errorf("per-precision H2D counters sum to %d, stats say %d", h2d, res.Stats.BytesH2D)
	}
}

// TestChromeTraceExport parses the Chrome trace JSON back and verifies the
// timeline shape: one named row (thread) per device stream, and every span
// lands on a declared row.
func TestChromeTraceExport(t *testing.T) {
	cfg, _ := buildNumericConfig(t, 6, 2, 1)
	cfg.Trace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}

	type row struct{ pid, tid int }
	rows := map[row]string{}
	spansPerRow := map[row]int{}
	for _, e := range parsed.TraceEvents {
		switch e.Phase {
		case "M":
			if e.Name == "thread_name" {
				rows[row{e.PID, e.TID}] = e.Args["name"].(string)
			}
		case "X":
			spansPerRow[row{e.PID, e.TID}]++
			if e.TS < 0 || e.Dur <= 0 {
				t.Errorf("span %q has ts=%g dur=%g", e.Name, e.TS, e.Dur)
			}
		}
	}
	// Both devices must declare all four stream rows.
	for pid := 0; pid < 2; pid++ {
		for tid, want := range []string{"compute", "convert", "H2D", "D2H"} {
			if got := rows[row{pid, tid}]; got != want {
				t.Errorf("dev%d tid%d named %q, want %q", pid, tid, got, want)
			}
		}
		if spansPerRow[row{pid, 0}] == 0 {
			t.Errorf("dev%d compute row has no spans", pid)
		}
		if spansPerRow[row{pid, 2}] == 0 {
			t.Errorf("dev%d H2D row has no spans", pid)
		}
	}
	// Every span must land on a declared row.
	for r, n := range spansPerRow {
		if _, ok := rows[r]; !ok {
			t.Errorf("%d span(s) on undeclared row pid=%d tid=%d", n, r.pid, r.tid)
		}
	}
	// A 2-rank run broadcasts: the NIC process rows must exist.
	var nic bool
	for r, name := range rows {
		if name == "send" && r.pid >= 2 {
			nic = true
		}
	}
	if !nic {
		t.Error("no NIC timeline row in a 2-rank run")
	}
}

// TestWriteChromeTraceRequiresTrace: exporting without Trace must fail
// loudly, not emit an empty file.
func TestWriteChromeTraceRequiresTrace(t *testing.T) {
	cfg, _ := buildNumericConfig(t, 4, 1, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err == nil {
		t.Error("WriteChromeTrace succeeded on an untraced run")
	}
}
