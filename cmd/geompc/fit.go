package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/core"
	"geompc/internal/hw"
)

// runFit is the end-to-end driver: it generates (or re-generates) a
// synthetic geospatial dataset, fits a Gaussian-process model by maximum
// likelihood using the adaptive mixed-precision Cholesky with automated
// precision conversion, and reports the estimates together with the
// simulated execution cost on the selected GPU machine.
//
//	geompc fit -n 400 -kernel 2D-Matern -ureq 1e-9
//	geompc fit -n 900 -kernel 2D-sqexp -ureq 1e-4 -machine Guyot -compare
func runFit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc fit", flag.ContinueOnError)
	n := fs.Int("n", 400, "number of spatial locations")
	kernelName := fs.String("kernel", "2D-Matern", "covariance: 2D-sqexp, 2D-Matern, 3D-sqexp")
	ureq := fs.Float64("ureq", 1e-9, "required accuracy u_req (0 = exact FP64)")
	ts := fs.Int("ts", 64, "tile size")
	machine := fs.String("machine", "Summit", "GPU machine: Summit (V100), Guyot (A100), Haxane (H100)")
	gpus := fs.Int("gpus", 1, "GPUs")
	seed := fs.Uint64("seed", 42, "dataset seed")
	compare := fs.Bool("compare", false, "also fit in exact FP64 and report the difference")
	if err := fs.Parse(args); err != nil {
		return err
	}

	app, ok := bench.AppByName(*kernelName)
	if !ok {
		return fmt.Errorf("unknown kernel %q", *kernelName)
	}
	nd, err := hw.NodeByName(*machine)
	if err != nil {
		return err
	}
	mach := core.Machine{Node: nd, Ranks: 1, GPUs: *gpus}

	ds, err := core.GenerateDataset(*n, app.Kernel.Dim(), app.Kernel, app.Theta, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "generated %d %s locations from θ=%v (seed %d)\n", *n, app.Name, app.Theta, *seed)

	fit := func(u float64) (*core.FitReport, error) {
		return core.Fit(ds, core.Options{UReq: u, TileSize: *ts, Machine: mach})
	}

	rep, err := fit(*ureq)
	if err != nil {
		return err
	}
	label := "exact FP64"
	if *ureq > 0 {
		label = fmt.Sprintf("adaptive MP @ u_req=%.0e", *ureq)
	}
	fmt.Fprintf(out, "\nfit (%s) on %d×%s:\n", label, *gpus, nd.GPU.Name)
	for i, name := range rep.ParamNames {
		fmt.Fprintf(out, "  %-8s = %.4f  (truth %.4f)\n", name, rep.Theta[i], app.Theta[i])
	}
	fmt.Fprintf(out, "  -loglik  = %.4f  (converged: %v)\n", rep.NegLogLik, rep.Converged)
	fmt.Fprintf(out, "simulated cost: %d likelihood evaluations, %.3f s machine time, %.1f J, %.2f Gflops/W, H2D %s\n",
		rep.Evaluations, rep.Time, rep.Energy, rep.GflopsPerW, bench.HumanBytes(rep.BytesH2D))
	if *ts < 512 {
		fmt.Fprintln(out, "note: at toy tile sizes the simulated cost is kernel-launch bound;")
		fmt.Fprintln(out, "      use examples/quickstart or core.ProjectFactorization for")
		fmt.Fprintln(out, "      production-scale (tile 2048) speedup/energy projections")
	}

	if *compare && *ureq > 0 {
		ex, err := fit(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nexact FP64 reference:\n")
		for i, name := range ex.ParamNames {
			fmt.Fprintf(out, "  %-8s = %.4f  (MP diff %+.2e)\n", name, ex.Theta[i], rep.Theta[i]-ex.Theta[i])
		}
		fmt.Fprintf(out, "  simulated time %.3f s (MP speedup %.2fx), energy %.1f J (MP saving %.1f%%)\n",
			ex.Time, ex.Time/rep.Time, ex.Energy, 100*(1-rep.Energy/ex.Energy))
	}
	return nil
}
