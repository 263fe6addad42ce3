package precflow_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/precflow"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"..", "testdata", "src", "precflow"}, elem...)...)
}

// TestLoweringChains loads the audited conversion package (base "fp16"), a
// helper with a buried unaudited lowering, and a consumer: every chain that
// reaches the raw cast is flagged (call and reference), while routes
// through the audited API and reasoned suppressions stay clean.
func TestLoweringChains(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("fp16"), ImportPath: "geompc/internal/fp16"},
		{Dir: fixture("geo"), ImportPath: "geompc/internal/geo"},
		{Dir: fixture("consumer"), ImportPath: "geompc/internal/mle"},
	}, precflow.Analyzer)
}

// TestOutside: in an unaudited package every lossy down-cast and
// bit-twiddle is flagged where it is written; exact conversions and
// constants are not.
func TestOutside(t *testing.T) {
	checkertest.Run(t, fixture("outside"), "geompc/internal/mle", precflow.Analyzer)
}

// TestAudited: the same expressions inside the conversion API are the
// implementation, not a violation.
func TestAudited(t *testing.T) {
	checkertest.Run(t, fixture("audited"), "geompc/internal/fp16", precflow.Analyzer)
}
