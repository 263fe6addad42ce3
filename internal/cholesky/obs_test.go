package cholesky

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	gort "runtime"
	"sort"
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

// TestAuditedStrategiesTwoByTwo: on 2 ranks × 2 devices the numeric run of
// each communication strategy (Auto/STC and ForceTTC) passes the engine's
// structural checks and the invariant auditor (pin balance, per-link
// interval consistency, energy conservation).
func TestAuditedStrategiesTwoByTwo(t *testing.T) {
	const nt, ranks, devPerRank = 6, 2, 2
	for _, strat := range []Strategy{Auto, ForceTTC} {
		cfg, _ := buildNumericConfig(t, nt, ranks, devPerRank)
		cfg.Strategy, cfg.Audit = strat, true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Err != nil {
			t.Fatalf("%v: numeric failure %v", strat, res.Err)
		}
		if res.Stats.Energy <= 0 {
			t.Errorf("%v: no energy accounted", strat)
		}
	}
}

// TestMetricsPopulated checks the Stats invariant behind `geompc trace
// -metrics`: on every link the per-precision bytes sum to the link total,
// over the pinned phantom scenarios (Auto and ForceTTC, one to four ranks,
// mixed and uniform FP64) and numeric runs on one and several ranks.
func TestMetricsPopulated(t *testing.T) {
	var cfgs []Config
	var names []string
	for name := range goldenDigests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfgs = append(cfgs, goldenScenario(t, name))
	}
	for _, c := range []struct{ nt, ranks, devPerRank int }{{6, 2, 1}, {6, 4, 1}, {5, 1, 3}} {
		cfg, _ := buildNumericConfig(t, c.nt, c.ranks, c.devPerRank)
		cfgs, names = append(cfgs, cfg), append(names, fmt.Sprintf("numeric nt%d-%dx%d", c.nt, c.ranks, c.devPerRank))
	}
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		st := res.Stats
		for _, link := range []struct {
			name   string
			total  int64
			byPrec [prec.Count]int64
		}{{"H2D", st.BytesH2D, st.H2DByPrec}, {"D2H", st.BytesD2H, st.D2HByPrec}, {"net", st.BytesNet, st.NetByPrec}} {
			var sum int64
			for _, b := range link.byPrec {
				sum += b
			}
			if sum != link.total {
				t.Errorf("%s: %s bytes by precision %v sum to %d, link total %d", names[i], link.name, link.byPrec, sum, link.total)
			}
		}
		if st.BytesH2D == 0 || st.BytesD2H == 0 {
			t.Errorf("%s: H2D %d, D2H %d bytes — scenario moved nothing", names[i], st.BytesH2D, st.BytesD2H)
		}
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
	if res.Stats.Trace != nil {
		t.Error("an untraced run recorded a trace")
	}
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err == nil {
		t.Error("WriteChromeTrace succeeded on an untraced run")
	}
}

// chromePinned pins the SHA-256 of WriteChromeTrace's bytes for two traced
// phantom runs, so a change in event order, formatting or coloring shows
// up even where the JSON still parses: a 2×2 rank grid under a banded map
// (NIC, H2D, D2H and convert rows; FP64, FP32 and FP16 spans) and the
// one-rank, two-GPU shape of `geompc trace -nt 8 -gpus 2 -audit`.
var chromePinned = map[string]string{
	"banded-2x2": "4997cd8186062a5be49344c391f4e1290f5b491e2448851f4784b04a8e2148c5",
	"trace-1x2":  "33ad52a3d2e80998d4ffdbf1bce11481e7603213679670276aa5fe6470df3fd6",
}

func TestChromeTracePinned(t *testing.T) {
	build := func(ranks, gpr, nt int, km [][]prec.Precision) Config {
		pg, qg := tile.SquarestGrid(ranks)
		d, err := tile.NewDesc(nt*2048, 2048, pg, qg)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := runtime.NewPlatform(hw.SummitNode, ranks, gpr)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Desc: d, Maps: precmap.New(km, 0), Platform: plat, Strategy: Auto,
			Options: runtime.Options{Trace: true, Audit: true}}
	}
	banded, err := precmap.BandedKernelMap(6, 0, 2, prec.FP16)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{
		"banded-2x2": build(4, 1, 6, banded),
		"trace-1x2":  build(1, 2, 8, precmap.Uniform(8, prec.FP16x32)),
	}
	for name, want := range chromePinned {
		res, err := Run(cfgs[name])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		for _, row := range []string{`"name":"convert","ph":"X"`, `"name":"H2D `, `"name":"D2H `, `"name":"bcast `,
			`"cname":"thread_state_uninterruptible"`, `"cname":"thread_state_iowait"`, `"cname":"light_memory_dump"`} {
			if name == "banded-2x2" && !bytes.Contains(buf.Bytes(), []byte(row)) {
				t.Errorf("%s: no %s event", name, row)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: chrome trace sha256 %s, want pinned %s", name, got, want)
		}
	}
}
