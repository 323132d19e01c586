package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"photoloop/internal/shard"
	"photoloop/internal/store"
)

// cmdWorker joins a serve process's shard coordinator as one worker: it
// leases ranges of point indices of a job's coordinator-resolved sweep
// spec over HTTP, evaluates them, and reports completion.
// The worker holds no store: completed searches upload back to the
// coordinator, which appends them to its own store, so a worker runs
// anywhere the coordinator URL reaches.
//
// Interrupting the worker (SIGINT/SIGTERM) is always safe — its finished
// searches are flushed per lease and its leased range is reassigned after
// the lease TTL.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL — the serve -shard process (required)")
	jobID := fs.String("job", "", "work only this job ID (default: any published job)")
	poll := fs.Duration("poll", 200*time.Millisecond, "idle wait between lease attempts")
	maxLeases := fs.Int("max-leases", 0, "exit after this many completed leases (0 = run until interrupted)")
	quiet := fs.Bool("quiet", false, "suppress per-lease output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("worker requires -coordinator")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := shard.WorkerOptions{
		Job:       *jobID,
		Poll:      *poll,
		MaxLeases: *maxLeases,
	}
	rp := store.NewRemotePersister(*coord, nil)
	if !*quiet {
		opts.OnLease = func(l *shard.Lease) {
			fmt.Fprintf(os.Stderr, "worker: leased %s: job %s gen %d (%d tasks)\n",
				l.ID, l.Job, l.Gen, len(l.Tasks))
		}
		rp.OnFlush = func(n int) {
			fmt.Fprintf(os.Stderr, "worker: uploading %d results\n", n)
		}
		fmt.Fprintf(os.Stderr, "worker: remote (no local store), coordinator %s\n", *coord)
	}
	return shard.Work(ctx, &shard.Client{Base: *coord}, rp, opts)
}
