// Command calloc-serve exposes a multi-model, multi-floor localization
// service over HTTP — one serving node (internal/node) behind flags, or a
// fleet router (internal/cluster) in front of many of them.
//
// Node mode (default): every {floor, backend} pair is a registered localizer
// with its own micro-batch lane, requests route hierarchically (floor
// classifier → position model), and model versions hot-swap under load —
// pushed manually over /v1/swap or produced automatically by the online
// fine-tune loop fed from /v1/feedback.
//
//	calloc-serve -data b3.gob                                # one floor, default backends
//	calloc-serve -data b3.gob -weights b3.model              # serve trained CALLOC weights
//	calloc-serve -data f0.gob,f1.gob -backends calloc,knn,bayes
//	calloc-serve -data f1.gob -floors 1 -addr :8081          # fleet shard owning global floor 1
//
// With several -data files each becomes one floor of the building (all must
// share the AP count); a Naive-Bayes floor classifier is fitted over the
// combined offline databases and registered for hierarchical routing.
// -floors assigns each dataset its global floor index so a fleet can split
// one building's floors across shards that agree on floor numbering.
//
// Router mode (-router -shards shards.json): the process owns no models. It
// proxies /v1/localize and /v1/feedback to the shard owning the request's
// {building, floor} (resolving floor-less localizes through a classifier
// fitted from -data when given), forwards /v1/swap checkpoint pushes to the
// owner — so each shard's holdout gate and regret window keep running
// per-node — and merges /v1/models, /v1/stats and /v1/trainer across every
// member into a fleet-wide view. /v1/shards reports membership and health.
//
//	calloc-serve -router -shards shards.json -addr :8080
//	calloc-serve -router -shards shards.json -data f0.gob,f1.gob   # + floor resolver
//
// Node endpoints:
//
//	POST /v1/localize {"rss": [...]}                          -> routed: floor classifier picks the floor
//	POST /v1/localize {"rss": [...], "backend": "knn"}        -> routed, explicit backend
//	POST /v1/localize {"rss": [...], "floor": 1}              -> direct: skip the floor classifier
//	POST /v1/feedback {"rss": [...], "rp": 17, "floor": 0}    -> labelled online sample for the fine-tune loop
//	GET  /v1/models                                           -> registry listing (key, name, version, dims)
//	GET  /v1/trainer                                          -> per-floor fine-tune loop counters
//	POST /v1/swap {"backend": "calloc", "floor": 0, "weights": "<base64>"}
//	                                                          -> hot-swap a new CALLOC weight version
//	POST /v1/swap {..., "stage": true}                        -> gated push: live only if it beats the incumbent on the
//	                                                             trainer's holdout (then the regret window applies)
//	GET  /v1/stats                                            -> engine throughput/latency counters (incl. uptime + per-key load)
//	GET  /healthz                                             -> 200 ok
//
// The router serves the same paths (plus GET /v1/shards); its GET views are
// fleet-wide merges with each entry annotated by the owning node.
//
// SIGINT/SIGTERM shut down gracefully: the HTTP server stops accepting, the
// trainers stop, then the engine drains its queued requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calloc/internal/cluster"
	"calloc/internal/node"
)

// serveFlags collects every parsed flag. The layer flags bind straight into
// the node.Config and cluster.RouterOptions they configure, so a flag whose
// value is 0 takes the package's own default; validate (server.go) rejects
// misconfigurations before any dataset loads or training starts.
type serveFlags struct {
	data, weights, backends, floors, addr, shards string
	router                                        bool
	node                                          node.Config
	route                                         cluster.RouterOptions
}

// register binds every flag to its field of f on fs.
func (f *serveFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.data, "data", "", "comma-separated dataset gob files from calloc-data, one per floor (required in node mode)")
	fs.StringVar(&f.weights, "weights", "", "comma-separated trained CALLOC weights per floor (omit to quick-train)")
	fs.StringVar(&f.backends, "backends", "calloc,knn,bayes", "comma-separated backends to serve: calloc, knn, bayes, gpc, gbdt, dnn")
	fs.StringVar(&f.floors, "floors", "", "comma-separated global floor index per -data file (default 0,1,...)")
	fs.IntVar(&f.node.TrainEpochs, "train-epochs", 10, "epochs per lesson when quick-training CALLOC without -weights")
	fs.StringVar(&f.node.Precision, "precision", "float64", "CALLOC packed-weight serving precision: float64 (default), float32, or int8 (quantized snapshots; training stays float64)")
	fs.StringVar(&f.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&f.node.Engine.MaxBatch, "max-batch", 0, "max coalesced requests per model call (0 = 32)")
	fs.IntVar(&f.node.Engine.Workers, "workers", 0, "concurrent batch dispatchers shared by all lanes (0 = min(2, GOMAXPROCS))")
	fs.IntVar(&f.node.Engine.QueueCap, "queue", 0, "per-lane pending-request bound (0 = 4×max-batch)")
	fs.BoolVar(&f.node.DisableTrainer, "no-trainer", false, "disable the online fine-tune loop")
	fs.IntVar(&f.node.Trainer.MinFeedback, "feedback-min", 0, "new /v1/feedback samples required before a fine-tune round (0 = 16)")
	fs.DurationVar(&f.node.Trainer.Interval, "trainer-interval", 0, "fine-tune loop poll cadence (0 = 2s)")
	fs.IntVar(&f.node.Trainer.EpochsPerLesson, "finetune-epochs", 0, "epochs per lesson of the fine-tune curriculum (0 = 6)")
	fs.Float64Var(&f.node.Trainer.LearningRate, "finetune-lr", 0, "learning rate each fine-tune round restarts at (0 = 0.005)")
	fs.Float64Var(&f.node.Trainer.MinDelta, "min-delta", 0, "holdout improvement a fine-tune round must clear to count as a win")
	fs.IntVar(&f.node.Trainer.PromoteStreak, "promote-streak", 0, "consecutive winning rounds before the candidate goes live (0 = 1)")
	fs.IntVar(&f.node.Trainer.RegretWindow, "regret-window", 3, "post-promotion trainer ticks that re-validate the promoted model (0 disables rollback-on-regret)")
	fs.Float64Var(&f.node.Trainer.RegretDelta, "regret-delta", 0, "tolerated holdout regression before a promoted model rolls back")
	fs.BoolVar(&f.router, "router", false, "run as the fleet router instead of a serving node (requires -shards)")
	fs.StringVar(&f.shards, "shards", "", "shard-map JSON file: {building/floor} -> node assignments (router mode)")
	fs.DurationVar(&f.route.ProbeInterval, "probe-interval", 0, "router health-probe cadence (0 = 2s, negative disables)")
	fs.IntVar(&f.route.Retries, "retries", 0, "router retry budget per proxied request on a failed shard (0 = 1, negative disables retries)")
	fs.IntVar(&f.route.CoalesceBatch, "router-batch", 0, "router-side coalescing: max concurrent /v1/localize proxies gathered into one upstream batch per shard (<= 1 disables)")
	fs.DurationVar(&f.route.CoalesceWait, "router-wait", 0, "router coalesce gather window (default 2ms when -router-batch > 1)")
}

func main() {
	var f serveFlags
	f.register(flag.CommandLine)
	flag.Parse()

	if err := f.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "calloc-serve: %v\n", err)
		os.Exit(2)
	}
	var err error
	if f.router {
		err = runRouter(f)
	} else {
		err = runServe(f)
	}
	if err != nil {
		fail(err)
	}
}

// serveHTTP runs handler on addr until SIGINT/SIGTERM, drains in-flight
// handlers, then runs shutdown (trainer/engine teardown) — so a handler
// mid-request never sees a closed engine.
func serveHTTP(addr string, handler http.Handler, shutdown func()) error {
	srv := newHTTPServer(addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	handlersDone := make(chan struct{})
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		close(handlersDone)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-handlersDone
	shutdown()
	return nil
}

// newHTTPServer builds the server both modes listen with. Its limits are
// fixed: a client has 10s to send headers of at most 64 KiB, and an idle
// keep-alive connection is closed after 2 minutes.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// logf writes one line to stderr; the node and the router log through it.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "calloc-serve: %v\n", err)
	os.Exit(1)
}
