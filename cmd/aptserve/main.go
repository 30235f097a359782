// Command aptserve serves a model over HTTP with dynamic micro-batching,
// compiled to the integer-only inference engine. By default it trains a
// compact model on the SynthCIFAR workload at startup; -model decouples
// serving from training by loading a bit-packed checkpoint (the
// models.Save format apttrain -save writes). The checkpoint header
// names its architecture and width multiplier, so -arch and -width are
// optional overrides — needed only for legacy checkpoints written
// before the width field existed at a non-default width:
//
//	aptserve [-addr :8651] [-workers 2] [-max-batch 32] [-max-delay 2ms]
//	aptserve -model ckpt.apt [-classes 4] [-size 16]
//	aptserve -model legacy.apt -arch smallcnn -width 0.5
//
// Endpoints:
//
//	POST /classify      {"input": [c·h·w floats]} or {"inputs": [[...], ...]};
//	                    optional "deadline_ms" bounds queue wait + inference
//	GET  /healthz       liveness probe (starting/ok/degraded/draining)
//	GET  /readyz        readiness probe: 200 only when traffic should route here
//	GET  /stats         sample/batch counters (batches by why they closed:
//	                    full, dry, timeout), cumulative queue wait, p50/p99
//	                    latency, throughput, /classify decode bytes, time
//	                    and fallbacks
//	POST /admin/reload  hot-swap the model without dropping in-flight work
//
// Hot reload: POST /admin/reload (or send the process SIGHUP) re-reads
// the -model checkpoint — or recompiles the startup-trained model — and
// atomically swaps the new engine in; in-flight batches finish on the old
// one. Overwrite the checkpoint file with freshly trained weights, then
// reload, for a zero-downtime model update. -deadline imposes a default
// per-request deadline on requests that don't carry their own.
//
// -watch closes the loop without any operator action: the checkpoint
// path is polled at the given interval (cheaply, via the version/CRC
// trailer models.SaveFileAtomic writes; mtime+size for legacy files) and
// a change triggers the same hot reload — the serving side of apttrain
// -dist -publish. Reloads retry with backoff, so a checkpoint caught
// mid-replace by a non-atomic writer heals on the next attempt instead
// of taking the server down.
//
// Batching: a batch runs as soon as the queue is dry, so an idle server
// answers at batch-1 latency and batches grow only under load; -max-batch
// is what bounds fusion, and -max-delay is merely the upper bound on how
// long a trickle of arrivals can keep one batch gathering.
//
// -smoke starts the server on an ephemeral port, performs health,
// classify, multi-sample classify (one POST must ride one engine batch)
// and hot-reload round trips (plus, with -watch, a
// republish-and-poll round trip that deliberately tears the checkpoint
// mid-write), and shuts down cleanly — the CI end-to-end probe.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/serve"
	"repro/internal/train"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aptserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aptserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8651", "listen address")
	classes := fs.Int("classes", 4, "number of classes")
	size := fs.Int("size", 16, "input spatial size")
	trainN := fs.Int("train", 512, "training samples")
	testN := fs.Int("test", 128, "held-out samples")
	epochs := fs.Int("epochs", 6, "training epochs before serving")
	modelPath := fs.String("model", "", "serve a bit-packed checkpoint (models.Save format) instead of training at startup")
	arch := fs.String("arch", "", "override the -model checkpoint's architecture header (default: read from the checkpoint)")
	width := fs.Float64("width", 0, "override the checkpoint's width multiplier (default: read from the checkpoint)")
	seed := fs.Uint64("seed", 7, "experiment seed")
	workers := fs.Int("workers", 2, "batching workers (engine replicas)")
	maxBatch := fs.Int("max-batch", 32, "max samples fused into one engine call")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "upper bound on how long a batch gathers; a batch normally runs as soon as the queue is dry, and -max-batch is what bounds fusion (0 = the 2ms default)")
	queueCap := fs.Int("queue", 0, "request queue bound (0 = 4·max-batch·workers)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline for /classify (0 = none; requests may set deadline_ms)")
	watch := fs.Duration("watch", 0, "poll the -model checkpoint at this interval and hot-reload when it changes (0 = off)")
	smoke := fs.Bool("smoke", false, "serve on an ephemeral port, run classify and hot-reload round trips, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch > 0 && *modelPath == "" {
		return fmt.Errorf("-watch requires -model")
	}

	srv, testSet, err := buildServer(serverConfig{
		classes: *classes, size: *size, trainN: *trainN, testN: *testN,
		epochs: *epochs, seed: *seed,
		modelPath: *modelPath, arch: *arch, width: *width,
		workers: *workers, maxBatch: *maxBatch, maxDelay: *maxDelay, queueCap: *queueCap,
		deadline: *deadline,
	}, out)
	if err != nil {
		return err
	}
	defer srv.Close()

	// A slow or stalled client must not hold a connection (and its
	// handler goroutine) open indefinitely: bound every phase of the
	// exchange. The write timeout leaves room for a full queue wait plus
	// a large batched inference.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	if *watch > 0 {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go watchCheckpoint(watchDone, *modelPath, *watch, srv, out)
	}
	if *smoke {
		// With -watch, the smoke run also exercises the publish side:
		// republish the checkpoint under a bumped version — tearing the
		// file mid-write first, as a crashing non-atomic publisher
		// would — and let the watcher pick it up through its retry path.
		var republish func() error
		if *watch > 0 {
			republish = func() error {
				v, _, err := models.CheckpointVersion(*modelPath)
				if err != nil {
					return err
				}
				raw, err := os.ReadFile(*modelPath)
				if err != nil {
					return err
				}
				mcfg := models.Config{Classes: *classes, InputSize: *size, Seed: *seed + 1}
				m, err := models.LoadAutoFile(*modelPath, *arch, *width, mcfg)
				if err != nil {
					return err
				}
				// The torn write in flight: half a checkpoint, written
				// in place. The watcher must reject it (CRC) and retry,
				// not swap in garbage or crash.
				if err := os.WriteFile(*modelPath, raw[:len(raw)/2], 0o644); err != nil {
					return err
				}
				return models.SaveFileAtomic(*modelPath, m, v+1)
			}
		}
		return smokeRun(hs, srv, testSet, *maxBatch, republish, out)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving on %s (workers=%d max-batch=%d max-delay=%s)\n",
		ln.Addr(), *workers, *maxBatch, *maxDelay)

	// SIGHUP hot-swaps the model: the same path as POST /admin/reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if v, err := srv.Reload(); err != nil {
				fmt.Fprintf(out, "reload failed: %v\n", err)
			} else {
				fmt.Fprintf(out, "reloaded model (version %d)\n", v)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Close()
	stats := srv.Stats()
	fmt.Fprintf(out, "served %d requests in %d batches (mean batch %.2f)\n",
		stats.Requests, stats.Batches, stats.MeanBatch)
	return nil
}

// serverConfig carries the resolved flags into buildServer.
type serverConfig struct {
	classes, size int
	trainN, testN int
	epochs        int
	seed          uint64
	modelPath     string // non-empty: load a checkpoint instead of training
	arch          string
	width         float64
	workers       int
	maxBatch      int
	maxDelay      time.Duration
	queueCap      int
	deadline      time.Duration
}

// buildServer obtains a model — training one at startup, or loading the
// bit-packed checkpoint named by -model — compiles it to the integer
// engine, and wraps it in the batching server. The SynthCIFAR train
// split doubles as the calibration batch in both paths.
func buildServer(cfg serverConfig, out io.Writer) (*serve.Server, data.Dataset, error) {
	trainSet, testSet, err := data.NewSynth(data.SynthConfig{
		Classes: cfg.classes, Train: cfg.trainN, Test: cfg.testN, Size: cfg.size, Seed: cfg.seed, Noise: 0.5,
	})
	if err != nil {
		return nil, nil, err
	}
	mcfg := models.Config{Classes: cfg.classes, InputSize: cfg.size, Seed: cfg.seed + 1}
	var model *models.Model
	if cfg.modelPath != "" {
		model, err = models.LoadAutoFile(cfg.modelPath, cfg.arch, cfg.width, mcfg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "loaded %s (width %g) checkpoint %s\n", model.Name, model.Width, cfg.modelPath)
	} else {
		model, err = models.SmallCNN(mcfg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "training smallcnn (%d samples, %d epochs)...\n", cfg.trainN, cfg.epochs)
		hist, err := train.Run(train.Config{
			Model: model, Train: trainSet, Test: testSet, BatchSize: 32, Epochs: cfg.epochs,
			Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, Seed: cfg.seed + 2,
		})
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "trained to %.1f%% accuracy\n", 100*hist.BestAcc())
	}
	calibN := 64
	if calibN > trainSet.Len() {
		calibN = trainSet.Len()
	}
	calib, _, err := data.PackBatch(trainSet, calibN)
	if err != nil {
		return nil, nil, err
	}
	compile := func(m *models.Model) (serve.Classifier, error) {
		return infer.Compile(m, infer.Config{Calibration: calib})
	}
	engine, err := compile(model)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "int8 engine %.1f KiB\n", float64(engine.(*infer.Engine).SizeBytes())/1024)
	// The reload function backs SIGHUP and POST /admin/reload: with
	// -model it re-reads the checkpoint path (pick up newly trained
	// weights written under the same name); otherwise it recompiles the
	// startup-trained model, which still proves out the swap path.
	// Compile runs the model's own layers, so two compiles of one model
	// must not overlap; Server.Reload serializes its callers.
	reload := func() (serve.Classifier, error) { return compile(model) }
	if cfg.modelPath != "" {
		reload = func() (serve.Classifier, error) {
			m, err := models.LoadAutoFile(cfg.modelPath, cfg.arch, cfg.width, mcfg)
			if err != nil {
				return nil, err
			}
			return compile(m)
		}
	}
	srv, err := serve.New(serve.Config{
		Engine:  engine, // sample geometry defaults from engine.InputShape
		Workers: cfg.workers, MaxBatch: cfg.maxBatch, MaxDelay: cfg.maxDelay, QueueCap: cfg.queueCap,
		DefaultDeadline: cfg.deadline,
		Reload:          reload,
		// A reload that catches the checkpoint mid-replace heals on
		// retry once the publisher's rename lands.
		ReloadRetries: 3,
		Warmup:        true,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, testSet, nil
}

// watchCheckpoint polls a checkpoint file and hot-reloads the server
// when it changes. Checkpoints written by models.SaveFileAtomic carry a
// version trailer read without decoding the payload; legacy files fall
// back to mtime+size. A failed reload (a torn file from a non-atomic
// writer, say) leaves the change pending, so the next tick retries until
// the file heals — on top of Server.Reload's own per-call retries.
func watchCheckpoint(done <-chan struct{}, path string, every time.Duration, srv *serve.Server, out io.Writer) {
	type fileID struct {
		ver    uint64
		hasVer bool
		mtime  time.Time
		size   int64
	}
	ident := func() (fileID, error) {
		fi, err := os.Stat(path)
		if err != nil {
			return fileID{}, err
		}
		id := fileID{mtime: fi.ModTime(), size: fi.Size()}
		if v, ok, err := models.CheckpointVersion(path); err == nil && ok {
			id.ver, id.hasVer = v, true
		}
		return id, nil
	}
	same := func(a, b fileID) bool {
		if a.hasVer && b.hasVer {
			return a.ver == b.ver
		}
		return a.hasVer == b.hasVer && a.size == b.size && a.mtime.Equal(b.mtime)
	}
	last, lastErr := ident() // the checkpoint currently being served
	primed := lastErr == nil
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		cur, err := ident()
		if err != nil {
			continue // mid-rename or gone; next tick settles it
		}
		if primed && same(cur, last) {
			continue
		}
		v, err := srv.Reload()
		if err != nil {
			fmt.Fprintf(out, "watch: reload failed: %v\n", err)
			continue // keep the change pending; retry next tick
		}
		fmt.Fprintf(out, "watch: reloaded model (version %d)\n", v)
		last, primed = cur, true
	}
}

// smokeRun binds an ephemeral port, waits for the warmup, performs
// health, classify, and hot-reload round trips over real HTTP — plus,
// when republish is set, a watcher round trip: republish the checkpoint
// (torn write included) and poll /stats until the new model version is
// live — and shuts the server down.
func smokeRun(hs *http.Server, srv *serve.Server, testSet data.Dataset, maxBatch int, republish func() error, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	getStats := func() (st serve.Stats, err error) {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			return st, fmt.Errorf("stats: %w", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, fmt.Errorf("stats decode: %w", err)
		}
		return st, nil
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	// awaitReady polls /readyz until it answers 200, for up to wait.
	awaitReady := func(wait time.Duration, when string) error {
		deadline := time.Now().Add(wait)
		for {
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				return fmt.Errorf("readyz: %w", err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("readyz: status %d %s", resp.StatusCode, when)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Wait out the warmup first: before the probe's first batch only the
	// warmup marks the server ready, so from here on the probe is its only
	// client and the batch accounting below sees the probe's requests alone.
	if err := awaitReady(5*time.Second, "after warmup"); err != nil {
		return err
	}

	img, label := testSet.Sample(0)
	body, err := json.Marshal(map[string]any{"input": img.Data()})
	if err != nil {
		return err
	}
	resp, err = http.Post(base+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	var got struct {
		Class *int `json:"class"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("classify decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || got.Class == nil {
		return fmt.Errorf("classify: status %d, body %+v", resp.StatusCode, got)
	}
	fmt.Fprintf(out, "smoke: /classify -> class %d (label %d)\n", *got.Class, label)

	if err := awaitReady(0, "after serving traffic"); err != nil {
		return err
	}

	// One hot reload round trip: swap in a freshly loaded engine and
	// verify the server still classifies on the new model version.
	resp, err = http.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	var rel struct {
		Version uint64 `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rel)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reload decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || rel.Version != 2 {
		return fmt.Errorf("reload: status %d, version %d (want 200, 2)", resp.StatusCode, rel.Version)
	}
	resp, err = http.Post(base+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("classify after reload: %w", err)
	}
	var got2 struct {
		Class *int `json:"class"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got2)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("classify after reload decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || got2.Class == nil || *got2.Class != *got.Class {
		return fmt.Errorf("classify after reload: status %d, body %+v (want class %d)", resp.StatusCode, got2, *got.Class)
	}
	fmt.Fprintf(out, "smoke: hot reload -> model version %d, same prediction\n", rel.Version)

	// One multi-sample POST (of at most -max-batch samples) travels the
	// queue as one group: exactly one more engine batch, closed because the
	// queue ran dry or the batch is full, not by -max-delay.
	n := min(16, testSet.Len())
	if maxBatch > 0 { // 0 is the server's default, 32
		n = min(n, maxBatch)
	}
	rows := make([][]float32, n)
	for i := range rows {
		img, _ := testSet.Sample(i)
		rows[i] = img.Data()
	}
	if body, err = json.Marshal(map[string]any{"inputs": rows}); err != nil {
		return err
	}
	before, err := getStats()
	if err != nil {
		return err
	}
	resp, err = http.Post(base+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("classify inputs: %w", err)
	}
	var many struct {
		Classes []int `json:"classes"`
	}
	err = json.NewDecoder(resp.Body).Decode(&many)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("classify inputs decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || len(many.Classes) != n || many.Classes[0] != *got.Class {
		return fmt.Errorf("classify inputs: status %d, classes %v (want %d, the first %d)", resp.StatusCode, many.Classes, n, *got.Class)
	}
	after, err := getStats()
	if err != nil {
		return err
	}
	if after.Batches != before.Batches+1 || after.Requests != before.Requests+uint64(n) || after.BatchesTimeout != 0 {
		return fmt.Errorf("classify inputs: %d samples ran in %d batch(es), %d closed by -max-delay since start (want 1 and 0)",
			after.Requests-before.Requests, after.Batches-before.Batches, after.BatchesTimeout)
	}
	fmt.Fprintf(out, "smoke: %d-sample /classify -> one batch\n", n)

	if republish != nil {
		if err := republish(); err != nil {
			return fmt.Errorf("republish: %w", err)
		}
		// The watcher must survive the torn intermediate write and land
		// on the republished checkpoint: model version 3 (boot = 1,
		// explicit reload = 2, watch reload = 3).
		watchDeadline := time.Now().Add(10 * time.Second)
		for {
			st, err := getStats()
			if err != nil {
				return err
			}
			if st.ModelVersion >= 3 {
				fmt.Fprintf(out, "smoke: watch -> model version %d after republish\n", st.ModelVersion)
				break
			}
			if time.Now().After(watchDeadline) {
				return fmt.Errorf("watch: model version still %d after republish", st.ModelVersion)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	srv.Close()
	st := srv.Stats()
	// The probe's own bodies are json.Marshal output: all of them must
	// have taken the single-pass decoder.
	if st.DecodeFallbacks != 0 {
		return fmt.Errorf("smoke: %d of %d /classify bodies fell back to encoding/json", st.DecodeFallbacks, st.HTTPRequests)
	}
	fmt.Fprintf(out, "smoke: clean shutdown after %d request(s), %d /classify bodies decoded single-pass\n", st.Requests, st.HTTPRequests)
	return nil
}
