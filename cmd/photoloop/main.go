// Command photoloop is the generic specification-driven front end of the
// modeling framework: evaluate or map JSON-specified architectures against
// built-in or JSON-specified DNN workloads, run declarative design-space
// sweeps and comparative preset studies, regenerate the paper's figures,
// or serve the model over HTTP.
//
// Subcommands:
//
//	photoloop eval (-arch a.json | -preset name) -network vgg16 [-layer name] [-mapping m.json] [-json] ...
//	photoloop sweep (-spec sweep.json | -preset fig4|fig5) [-format json|csv] [-out file] ...
//	photoloop explore (-spec explore.json | -preset name [-axis p=...]) [-budget N] [-strategy auto|grid|adaptive] ...
//	photoloop study [-presets all] [-workloads all] [-objectives energy] [-format table|markdown|json|csv] ...
//	photoloop jobs submit -store DIR (-sweep s.json | -explore e.json) ...
//	photoloop jobs (resume|status|result) -store DIR [-id ID] ...
//	photoloop serve [-addr :8080] [-workers N] [-store DIR] [-shard]
//	photoloop worker -coordinator URL [-job ID]
//	photoloop repro [-fig all|2|3|4|5|ablation|claims] [-budget 800] [-seed 1] [-csv DIR]
//	photoloop template          # print an example architecture spec
//	photoloop networks          # list built-in workloads
//	photoloop presets           # list the architecture preset library
//	photoloop classes           # list component classes
//	photoloop version           # print the build version
//	photoloop help              # print this usage
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"photoloop/internal/components"
	"photoloop/internal/exp"
	"photoloop/internal/explore"
	"photoloop/internal/fidelity"
	"photoloop/internal/jobs"
	"photoloop/internal/presets"
	"photoloop/internal/shard"
	"photoloop/internal/spec"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches a subcommand and returns the process exit code: 0 on
// success (including an explicit help request), 1 on runtime errors, 2 on
// usage errors.
func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "eval":
		err = cmdEval(args[1:])
	case "sweep":
		err = cmdSweep(args[1:])
	case "explore":
		err = cmdExplore(args[1:])
	case "study":
		err = cmdStudy(args[1:])
	case "jobs":
		err = cmdJobs(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "worker":
		err = cmdWorker(args[1:])
	case "repro":
		err = cmdRepro(args[1:])
	case "template":
		fmt.Print(spec.Template)
	case "networks":
		err = cmdNetworks()
	case "presets":
		err = cmdPresets()
	case "classes":
		for _, c := range components.Classes() {
			fmt.Println(c)
		}
	case "version":
		fmt.Println(version())
	case "-h", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "photoloop: unknown subcommand %q (run 'photoloop help')\n", args[0])
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "photoloop:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  photoloop eval (-arch a.json | -preset name) (-network name|file.json)
                 [-layer name] [-mapping m.json] [-batch N] [-budget N]
                 [-objective energy|delay|edp] [-seed N] [-search-workers N]
                 [-fidelity] [-json]
      Evaluate (or mapper-search) an architecture against a workload: a
      JSON architecture spec, or a named preset from the library
      ('photoloop presets' lists them). With -mapping, the fixed schedule
      in m.json is evaluated instead of searching. -fidelity additionally
      runs the analog fidelity rollup (SNR, effective bits, estimated
      accuracy loss — see docs/MODELING.md) over each schedule; energy,
      delay and area are bit-identical either way. With -json, the result
      is the same document POST /v1/eval answers.
  photoloop sweep (-spec sweep.json | -preset fig4|fig5) [-format json|csv]
                  [-out file] [-workers N] [-budget N] [-seed N]
                  [-warm-start] [-quiet]
      Run a declarative design-space sweep (variants x workloads x
      objectives) on a concurrent worker pool with search deduplication.
      -warm-start chains same-workload points across the variant axis,
      seeding each search with its neighbor's best mappings so the
      mapper's lower bound prunes from the first candidate.
  photoloop explore (-spec explore.json | -preset name [-axis param=...])
                    [-network vgg16] [-objectives energy,area] [-budget N]
                    [-strategy auto|grid|adaptive] [-mapper-budget N] [-seed N]
                    [-search-workers N] [-format markdown|json|csv] [-out file]
      Search a declared parameter space for its Pareto frontier over the
      given objectives (all minimized; "accuracy" trades pJ/MAC against
      analog effective bits via the fidelity rollup). -axis is repeatable
      and accepts
      explicit grids (param=1,3,5) or ranges (param=2..16:2); with no
      axes, the stock Albireo lever space is searched. The grid strategy
      exhausts small spaces bit-identically to 'photoloop sweep'; the
      adaptive strategy evaluates at most -budget points of spaces too
      large to enumerate. See docs/EXPLORATION.md.
  photoloop study [-presets all|a,b,...] [-workloads all|a,b,...]
                  [-objectives energy,delay,edp] [-batch N] [-budget N]
                  [-seed N] [-search-workers N] [-workers N]
                  [-format table|markdown|json|csv] [-out file] [-quiet]
      Run a comparative study: the cross product of architecture presets x
      zoo workloads x objectives through the cached sweep engine, ranked
      per (workload, objective) group. Rows are bit-identical to
      evaluating each (preset, workload) pair with 'photoloop eval
      -preset' at the same budget/seed/search-workers.
  photoloop jobs submit -store DIR (-sweep s.json | -explore e.json)
                 [-workers N] [-quiet]
  photoloop jobs resume -store DIR -id ID [-workers N] [-quiet]
  photoloop jobs status -store DIR [-id ID]
  photoloop jobs result -store DIR -id ID [-out file]
      Run sweeps and explorations as durable jobs over a persistent
      result store: every completed layer search is checkpointed to DIR
      as it finishes, so a killed job resumes from where it stopped and
      re-running a finished job recomputes nothing. submit is idempotent
      (equal specs are one job, named by a content address) and runs the
      job to completion; resume re-runs an interrupted or failed job to a
      byte-identical result. See docs/SERVICE.md.
  photoloop serve [-addr :8080] [-workers N] [-store DIR] [-debug]
                  [-shard] [-shard-local=true] [-shard-ttl 10s]
      Serve the model over HTTP: POST /v1/eval, POST /v1/sweep,
      POST /v1/explore, POST /v1/study, GET /v1/networks,
      GET /v1/presets. With -store, searches persist to the DIR result
      store across restarts and the async job API is mounted:
      POST /v1/jobs, GET /v1/jobs[/{id}[/result|/stream]]. -debug
      additionally mounts net/http/pprof under /debug/pprof/ for live
      profiling. With -shard (requires -store), submitted jobs are fanned
      out across attached 'photoloop worker' processes through range
      leases; -shard-local=false leaves all evaluation to workers, and
      GET /v1/jobs/{id}/shards reports lease progress.
  photoloop worker -coordinator URL [-job ID] [-poll D]
                   [-max-leases N] [-quiet]
      Join a serve -shard process as one worker: lease ranges of point
      indices of a job's coordinator-resolved sweep spec, evaluate
      them, report completion. The worker holds no store and
      uploads results back to the coordinator over HTTP, so it runs on
      any machine that can reach the URL. Killing a worker is always
      safe: finished searches are durable and its range is reassigned
      after the lease TTL. See docs/SERVICE.md.
  photoloop repro [-fig all|2|3|4|5|ablation|claims] [-budget 800]
                  [-seed 1] [-csv DIR]
      Regenerate the paper's figures (Fig. 2 energy validation, Fig. 3
      throughput, Fig. 4 memory exploration, Fig. 5 reuse exploration,
      modeling ablations) as text, and score the paper's headline claims
      against their tolerance bands. -csv also writes each figure's
      table as DIR/<fig>.csv. Exits 1 if any claim fails, naming it.
  photoloop template    print an example architecture spec
  photoloop networks    list built-in workloads
  photoloop presets     list the architecture preset library
  photoloop classes     list component classes
  photoloop version     print the build version
  photoloop help        print this usage

-objective selects what the mapper minimizes: "energy" (total pJ), "delay"
(cycles) or "edp" (energy-delay product).`)
}

// version reports the module version when built from a tagged module, or
// the VCS revision, falling back to "devel".
func version() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return "devel"
}

func cmdNetworks() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tfamily\tlayers\tMACs\tweights\tdescription")
	for _, e := range workload.ZooEntries() {
		n := e.Build(1)
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%s\n",
			e.Name, e.Family, len(n.Layers), n.MACs(), n.WeightElems(), e.Description)
	}
	return w.Flush()
}

func cmdPresets() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "preset\tkind\tpeak MACs/cycle\tarea mm^2\tdescription")
	for _, p := range presets.All() {
		a, err := p.Build()
		if err != nil {
			return err
		}
		area, err := a.Area()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\t%s\n",
			p.Name, p.Kind(), a.PeakMACsPerCycle(), area/1e6, p.Description)
	}
	return w.Flush()
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	archPath := fs.String("arch", "", "architecture spec JSON (this or -preset is required)")
	presetName := fs.String("preset", "", "named architecture preset ('photoloop presets' lists them)")
	network := fs.String("network", "", "built-in network name or network JSON file (required)")
	layerName := fs.String("layer", "", "evaluate only this layer")
	mappingPath := fs.String("mapping", "", "mapping spec JSON (default: search)")
	batch := fs.Int("batch", 1, "batch size")
	budget := fs.Int("budget", 1000, "mapper budget per layer")
	objective := fs.String("objective", "energy", "energy, delay or edp")
	seed := fs.Int64("seed", 1, "mapper seed")
	searchWorkers := fs.Int("search-workers", 0, "per-layer search parallelism; match a study's -search-workers for bit-identical rows (0 = mapper default)")
	withFidelity := fs.Bool("fidelity", false, "run the analog fidelity rollup (SNR, effective bits, accuracy loss) over each schedule")
	asJSON := fs.Bool("json", false, "emit the /v1/eval JSON document instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*archPath == "") == (*presetName == "") {
		return fmt.Errorf("eval requires exactly one of -arch or -preset")
	}
	if *network == "" {
		return fmt.Errorf("eval requires -network")
	}

	req := &sweep.EvalRequest{
		Preset: *presetName,
		Layer:  *layerName, Batch: *batch, Objective: *objective,
		Budget: *budget, Seed: *seed, Workers: *searchWorkers,
	}
	if *withFidelity {
		req.Fidelity = &fidelity.Spec{}
	}
	if *archPath != "" {
		af, err := os.Open(*archPath)
		if err != nil {
			return err
		}
		req.Arch, err = spec.ParseArchSpec(af)
		af.Close()
		if err != nil {
			return err
		}
	}
	if _, ok := workload.Zoo()[*network]; ok {
		req.Network = *network
	} else {
		nf, err := os.Open(*network)
		if err != nil {
			return fmt.Errorf("network %q is not built in and not a readable file: %w", *network, err)
		}
		req.Inline, err = workload.DecodeNetworkJSON(nf)
		nf.Close()
		if err != nil {
			return err
		}
	}
	if *mappingPath != "" {
		mf, err := os.Open(*mappingPath)
		if err != nil {
			return err
		}
		req.Mapping, err = spec.ParseMappingSpec(mf)
		mf.Close()
		if err != nil {
			return err
		}
	}

	resp, err := sweep.Eval(req, nil)
	if err != nil {
		return err
	}
	if *asJSON {
		return writeEvalJSON(os.Stdout, resp)
	}
	return renderEval(os.Stdout, resp)
}

func writeEvalJSON(w io.Writer, resp *sweep.EvalResponse) error {
	// Match the server's encoding exactly (same document, same bytes).
	return sweep.EncodeResponseJSON(w, resp)
}

// renderEval prints the human-readable evaluation table.
func renderEval(out io.Writer, resp *sweep.EvalResponse) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tMACs\tpJ/MAC\tMACs/cycle\tutil\tevals\tpruned")
	for _, l := range resp.Layers {
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%.1f\t%.1f%%\t%d\t%d\n",
			l.Layer, l.MACs, l.PJPerMAC, l.MACsPerCycle, 100*l.Utilization, l.Evaluations, l.Pruned)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(resp.Layers) > 1 && resp.MACs > 0 && resp.Cycles > 0 {
		fmt.Fprintf(out, "total: %.4f pJ/MAC, %.1f MACs/cycle\n", resp.PJPerMAC, resp.MACsPerCycle)
	}
	if resp.Evaluations > 0 {
		fmt.Fprintf(out, "search: %d evaluations — %d pruned by lower bound, %d delta, %d full\n",
			resp.Evaluations, resp.Pruned, resp.DeltaEvals, resp.FullEvals)
	}
	if resp.EffectiveBits != 0 || resp.SNRDB != 0 || resp.AccuracyLossPct != 0 {
		fmt.Fprintf(out, "fidelity: %.2f effective bits (%.1f dB SNR), est. accuracy loss %.2f%%\n",
			resp.EffectiveBits, resp.SNRDB, resp.AccuracyLossPct)
	}
	fmt.Fprintf(out, "area: %.3f mm^2, peak %d MACs/cycle\n", resp.AreaUM2/1e6, resp.PeakMACsPerCycle)
	return nil
}

// openOut opens the results destination before any compute is spent (a
// bad path must fail in milliseconds, not after the run). The returned
// closeOut wraps a command's final error: buffered writes can surface
// only at Close, and a dropped close error would mean a silently
// truncated results file.
func openOut(path string) (io.Writer, func(error) error, error) {
	if path == "" {
		return os.Stdout, func(err error) error { return err }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	closeOut := func(err error) error {
		if cerr := f.Close(); err == nil {
			return cerr
		}
		return err
	}
	return f, closeOut, nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file (or - for stdin)")
	preset := fs.String("preset", "", "built-in sweep: fig4 or fig5 (the paper's explorations)")
	format := fs.String("format", "json", "output format: json or csv")
	outPath := fs.String("out", "", "write results to this file (default stdout)")
	workers := fs.Int("workers", 0, "point-level worker pool size (default GOMAXPROCS)")
	budget := fs.Int("budget", 0, "override the spec's mapper budget per layer")
	seed := fs.Int64("seed", 0, "override the spec's mapper seed")
	warmStart := fs.Bool("warm-start", false, "thread incumbent mappings across neighboring grid points (chains same-workload points; see the spec's warm_start field)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*specPath == "") == (*preset == "") {
		return fmt.Errorf("sweep requires exactly one of -spec or -preset")
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want json or csv)", *format)
	}
	var sp sweep.Spec
	switch {
	case *preset == "fig4":
		sp = exp.Fig4SweepSpec(exp.Config{Budget: *budget, Seed: *seed})
	case *preset == "fig5":
		sp = exp.Fig5SweepSpec(exp.Config{Budget: *budget, Seed: *seed})
	case *preset != "":
		return fmt.Errorf("unknown preset %q (want fig4 or fig5)", *preset)
	default:
		var r io.Reader = os.Stdin
		if *specPath != "-" {
			f, err := os.Open(*specPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		parsed, err := sweep.DecodeSpec(r)
		if err != nil {
			return err
		}
		sp = parsed
		if *budget > 0 {
			sp.Budget = *budget
		}
		if *seed != 0 {
			sp.Seed = *seed
		}
	}

	if *warmStart {
		sp.WarmStart = true
	}

	out, closeOut, err := openOut(*outPath)
	if err != nil {
		return err
	}

	opts := sweep.Options{Workers: *workers}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := sweep.Run(sp, opts)
	if err != nil {
		return closeOut(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d layer searches, %d deduplicated\n",
			res.CacheHits+res.CacheMisses, res.CacheHits)
		if scored := res.Pruned + res.DeltaEvals + res.FullEvals; scored > 0 {
			fmt.Fprintf(os.Stderr, "sweep: mapper scored %d candidates — %.0f%% pruned by lower bound, %d delta, %d full\n",
				scored, 100*res.PrunedFraction(), res.DeltaEvals, res.FullEvals)
		}
	}

	if *format == "csv" {
		return closeOut(res.WriteCSV(out))
	}
	return closeOut(res.WriteJSON(out))
}

// cmdJobs drives the durable job engine: submit/resume run synchronously
// in this process (the HTTP server's POST /v1/jobs runs the same engine
// asynchronously); status and result only read the store directory. Every
// verb takes the store's single-writer lock, so it fails while a serve
// process holds the same directory — ask that server (GET /v1/jobs/{id})
// instead.
func cmdJobs(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs requires a verb: submit, resume, status or result")
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("jobs "+verb, flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory (required)")
	id := fs.String("id", "", "job ID")
	workers := fs.Int("workers", 0, "point-level worker pool size (default engine default)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	var sweepPath, explorePath, outPath *string
	switch verb {
	case "submit":
		sweepPath = fs.String("sweep", "", "sweep spec JSON file")
		explorePath = fs.String("explore", "", "explore spec JSON file")
	case "result":
		outPath = fs.String("out", "", "write the artifact to this file (default stdout)")
	case "resume", "status":
	default:
		return fmt.Errorf("unknown jobs verb %q (want submit, resume, status or result)", verb)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("jobs %s requires -store", verb)
	}
	m, err := jobs.Open(*storeDir)
	if err != nil {
		return err
	}
	defer m.Close()
	m.Workers = *workers

	runJob := func(jobID string) error {
		if !*quiet {
			m.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\rjob %s: %d/%d points", jobID, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		st, err := m.Run(context.Background(), jobID)
		if err != nil {
			return err
		}
		if !*quiet && st.Store != nil {
			fmt.Fprintf(os.Stderr, "job %s: done — %d searches from store, %d from memory, %d computed\n",
				jobID, st.Store.DiskHits, st.Store.Hits, st.Store.Misses)
		}
		return nil
	}

	switch verb {
	case "submit":
		if (*sweepPath == "") == (*explorePath == "") {
			return fmt.Errorf("jobs submit requires exactly one of -sweep or -explore")
		}
		var sp jobs.Spec
		if *sweepPath != "" {
			parsed, err := decodeSweepFile(*sweepPath)
			if err != nil {
				return err
			}
			sp.Sweep = &parsed
		} else {
			f, err := os.Open(*explorePath)
			if err != nil {
				return err
			}
			parsed, err := explore.DecodeSpec(f)
			f.Close()
			if err != nil {
				return err
			}
			sp.Explore = &parsed
		}
		st, err := m.Submit(sp)
		if err != nil {
			return err
		}
		fmt.Printf("job %s\n", st.ID)
		return runJob(st.ID)
	case "resume":
		if *id == "" {
			return fmt.Errorf("jobs resume requires -id")
		}
		return runJob(*id)
	case "status":
		if *id != "" {
			st, err := m.Status(*id)
			if err != nil {
				return err
			}
			return sweep.EncodeResponseJSON(os.Stdout, st)
		}
		list, err := m.List()
		if err != nil {
			return err
		}
		return sweep.EncodeResponseJSON(os.Stdout, list)
	default: // result
		if *id == "" {
			return fmt.Errorf("jobs result requires -id")
		}
		buf, err := m.Result(*id)
		if err != nil {
			return err
		}
		out, closeOut, err := openOut(*outPath)
		if err != nil {
			return err
		}
		_, err = out.Write(buf)
		return closeOut(err)
	}
}

// decodeSweepFile strictly parses a sweep spec file (or stdin with "-").
func decodeSweepFile(path string) (sweep.Spec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return sweep.Spec{}, err
		}
		defer f.Close()
		r = f
	}
	return sweep.DecodeSpec(r)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "per-sweep point pool size (default GOMAXPROCS)")
	storeDir := fs.String("store", "", "persist searches to this result store directory and mount the async job API")
	debugFlag := fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	shardFlag := fs.Bool("shard", false, "with -store: fan jobs out across attached 'photoloop worker' processes")
	shardLocal := fs.Bool("shard-local", true, "with -shard: this process also works leases (false leaves all evaluation to workers)")
	shardTTL := fs.Duration("shard-ttl", shard.DefaultLeaseTTL, "with -shard: lease heartbeat deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardFlag && *storeDir == "" {
		return fmt.Errorf("serve: -shard requires -store (worker results are appended to the store)")
	}
	srv := sweep.NewServer()
	srv.Workers = *workers
	explore.Attach(srv)
	endpoints := "POST /v1/eval, POST /v1/sweep, POST /v1/explore, POST /v1/study, GET /v1/networks, GET /v1/presets"
	if *storeDir != "" {
		m, err := jobs.Open(*storeDir)
		if err != nil {
			return err
		}
		defer m.Close()
		m.Workers = *workers
		if *shardFlag {
			c := shard.NewCoordinator()
			c.LeaseTTL = *shardTTL
			m.Shard = c
			m.ShardLocal = *shardLocal
			fmt.Fprintf(os.Stderr, "photoloop: shard coordinator on (lease ttl %s, local worker %v)\n",
				c.LeaseTTL, *shardLocal)
		}
		// Synchronous requests share the persistence: their searches are
		// written through to the same store the jobs resume from.
		srv.SearchCache().SetPersister(m.Store())
		jobs.Attach(srv, m)
		endpoints += ", POST /v1/jobs, GET /v1/jobs"
		fmt.Fprintf(os.Stderr, "photoloop: result store at %s (%d searches on disk)\n", *storeDir, m.Store().Len())
	}
	handler := http.Handler(srv)
	if *debugFlag {
		// pprof endpoints on the same listener: profile the mapper hot
		// loop in production with
		//   go tool pprof http://host:8080/debug/pprof/profile
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		fmt.Fprintln(os.Stderr, "photoloop: pprof enabled at /debug/pprof/")
	}
	fmt.Fprintf(os.Stderr, "photoloop: serving on %s (%s)\n", *addr, endpoints)
	hs := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Sweeps run long, so no WriteTimeout; header and idle timeouts
		// keep slow-header and abandoned connections from accumulating.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.ListenAndServe()
}
