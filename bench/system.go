package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"calloc/internal/attack"
	"calloc/internal/cluster"
	"calloc/internal/core"
	"calloc/internal/curriculum"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/node"
)

// world is what the system under test is built from. Buildings, offline
// databases and therefore the quick-trained models come from worldSeed and
// are the same in every run; only the traffic follows -seed. A run-seeded
// model would move mean_err_m by ±10% between seeds and hide an accuracy
// regression of the size a lower precision causes.
type world struct {
	spec        floorplan.Spec
	trainPerRP  int
	testPerRP   int
	trainEpochs int
}

const (
	worldSeed = 1
	numFloors = 2
	backend   = "calloc"
	batchRows = 64
	// attackPhi is the share of APs the white-box adversary perturbs; 50% is
	// what the fine-tune gate's own attacked validation uses.
	attackPhi = 50
	// warmupPerConn requests go down every connection before anything is
	// timed: predictor pools, wire buffers and the TCP window are then warm.
	warmupPerConn = 200
)

// shippedWorld is two floors of Table-II Building 1 behind calloc-serve's
// defaults.
func shippedWorld() world {
	spec, err := floorplan.SpecByID(1)
	if err != nil {
		panic(err) // the registry always has building 1
	}
	return world{spec: spec, trainPerRP: 5, testPerRP: 4, trainEpochs: 5}
}

// workload is one traffic mix. Rates and connection counts are part of the
// metric definitions (see README.md) and never change with the run length.
type workload struct {
	name    string
	rate    float64 // open-loop arrivals per second over all reader connections
	readers int     // reader connections, one sender goroutine each
	batch   bool    // /v1/localize/batch, batchRows rows of one explicit floor
	routed  bool    // through cluster.Router to one node per floor
}

var workloads = []workload{
	{name: "single_direct", rate: 300, readers: 2},
	{name: "batch_direct", rate: 60, readers: 2, batch: true},
	{name: "single_routed", rate: 300, readers: 2, routed: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query is one online fingerprint of the pool with its true label and the
// answer the served models give it.
type query struct {
	rss       []float64
	floor, rp int // where it was captured
	attacked  bool
	wantFloor int // reference answer, computed from the registry at set-up
	wantRP    int
}

// request is one prebuilt HTTP exchange.
type request struct {
	wire []byte // the complete HTTP/1.1 request
	body []byte // its JSON body, the tail of wire
	rows []int  // the queries it carries, in row order
}

type setupTimes struct {
	collect     time.Duration
	nodeNew     time.Duration
	craftPerRow time.Duration
	total       time.Duration
}

// system is the deployment one workload runs against, built in-process from
// the packages' public constructors and reached over real loopback sockets.
type system struct {
	wl       workload
	building int
	data     []*fingerprint.Dataset // per floor: offline database + fine-tune holdout
	nodes    []*node.Node           // one serving both floors; one per floor when routed
	router   *cluster.Router
	resolve  func(rss []float64) (int, error)
	floorLoc localizer.Localizer // the floor stage: the node's classifier, or the router's
	servers  []*http.Server
	served   []chan error
	front    string   // where the generator connects
	nodeAddr []string // per node
	queries  []query
	requests []request
	feedback []request  // prebuilt /v1/feedback posts: floor 0, true labels
	conns    []*rawConn // one per reader
	times    setupTimes
}

// newSystem builds the deployment, crafts the query pool, computes every
// reference answer and warms each connection up. The clock it reports stops
// at the first verified answer after warm-up.
func newSystem(wl workload, w world, seed int64) (sys *system, err error) {
	start := time.Now()
	s := &system{wl: wl, building: w.spec.ID}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	online, labelled, err := s.collect(w, seed)
	if err != nil {
		return nil, err
	}
	if err := s.deploy(w); err != nil {
		return nil, err
	}
	if err := s.buildPool(online, seed); err != nil {
		return nil, err
	}
	s.buildRequests(seed, labelled)
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	s.times.total = time.Since(start)
	return s, nil
}

// collect synthesises the floors. The offline phase (and the holdout the
// fine-tune gate validates on) uses worldSeed; the online fingerprints that
// become read traffic are collected again with the run's seed. The labelled
// samples the traced run feeds back are a third collection on floor 0, from
// worldSeed too: what its fine-tune round learns is then the same in every
// run, like the models it starts from.
func (s *system) collect(w world, seed int64) (online []*fingerprint.Dataset, labelled []fingerprint.Sample, err error) {
	start := time.Now()
	online = make([]*fingerprint.Dataset, numFloors)
	for f := 0; f < numFloors; f++ {
		b := floorplan.Build(w.spec, worldSeed+int64(f))
		cfg := fingerprint.CollectConfig{
			TrainPerRP: w.trainPerRP, TestPerRP: w.testPerRP,
			TrainDevice: device.TrainingDevice, Seed: worldSeed + int64(f),
		}
		ds, err := fingerprint.Collect(b, device.Registry(), cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("collect floor %d: %w", f, err)
		}
		s.data = append(s.data, ds)
		cfg.Seed = seed*numFloors + int64(f) + 7919
		if online[f], err = fingerprint.Collect(b, device.Registry(), cfg); err != nil {
			return nil, nil, fmt.Errorf("collect floor %d online: %w", f, err)
		}
		if f == 0 {
			cfg.Seed = worldSeed + 104729
			fb, err := fingerprint.Collect(b, device.Registry(), cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("collect feedback: %w", err)
			}
			for _, dev := range device.Acronyms() {
				labelled = append(labelled, fb.Test[dev]...)
			}
			rand.New(rand.NewSource(worldSeed)).Shuffle(len(labelled), func(a, b int) {
				labelled[a], labelled[b] = labelled[b], labelled[a]
			})
		}
	}
	s.times.collect = time.Since(start)
	return online, labelled, nil
}

// deploy brings up the nodes (quick-training as calloc-serve without
// -weights does), their listeners and, when routed, the router in front.
// Engine and trainer options stay at their zero values: the shipped defaults.
func (s *system) deploy(w world) error {
	cfg := node.Config{Backends: []string{backend}, Precision: "float32", TrainEpochs: w.trainEpochs}
	start := time.Now()
	if s.wl.routed {
		for f := range s.data {
			c := cfg
			c.Floors = []int{f}
			n, err := node.New(s.data[f:f+1], c)
			if err != nil {
				return fmt.Errorf("node for floor %d: %w", f, err)
			}
			s.nodes = append(s.nodes, n)
		}
	} else {
		n, err := node.New(s.data, cfg)
		if err != nil {
			return fmt.Errorf("node: %w", err)
		}
		s.nodes = append(s.nodes, n)
	}
	s.times.nodeNew = time.Since(start)

	for _, n := range s.nodes {
		addr, err := s.listen(n.Handler())
		if err != nil {
			return err
		}
		s.nodeAddr = append(s.nodeAddr, addr)
	}
	if !s.wl.routed {
		snap, ok := s.nodes[0].Registry().Get(localizer.FloorKey(s.building))
		if !ok {
			return errors.New("node registered no floor classifier")
		}
		s.floorLoc = snap.Localizer
		s.front = s.nodeAddr[0]
		return nil
	}

	names := make(map[string]string, numFloors)
	assign := make(map[cluster.ShardKey]string, numFloors)
	for f, addr := range s.nodeAddr {
		name := "floor" + strconv.Itoa(f)
		names[name] = "http://" + addr
		assign[cluster.ShardKey{Building: s.building, Floor: f}] = name
	}
	shards, err := cluster.NewStaticMap(names, assign)
	if err != nil {
		return err
	}
	if s.floorLoc, err = node.FitFloorClassifier(s.data, nil); err != nil {
		return err
	}
	s.resolve = floorResolver(s.floorLoc)
	s.router, err = cluster.NewRouter(shards, cluster.RouterOptions{Building: s.building, Resolve: s.resolve})
	if err != nil {
		return err
	}
	s.router.Start()
	s.front, err = s.listen(s.router.Handler())
	return err
}

// floorResolver adapts a floor classifier to the router's resolve hook the
// way cmd/calloc-serve does.
func floorResolver(fc localizer.Localizer) func(rss []float64) (int, error) {
	return func(rss []float64) (int, error) {
		if len(rss) != fc.InputDim() {
			return 0, fmt.Errorf("fingerprint has %d features, floor resolver expects %d", len(rss), fc.InputDim())
		}
		row := append([]float64(nil), rss...)
		return fc.PredictInto(nil, mat.FromSlice(1, len(row), row))[0], nil
	}
}

// listen serves h on a fresh loopback port with the http.Server settings
// cmd/calloc-serve uses.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.servers = append(s.servers, srv)
	s.served = append(s.served, done)
	return ln.Addr().String(), nil
}

// close stops listeners, router and nodes and waits for them.
func (s *system) close() {
	for _, c := range s.conns {
		c.close()
	}
	for i, srv := range s.servers {
		srv.Close()
		<-s.served[i]
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

func (s *system) nodeOf(floor int) *node.Node {
	if s.wl.routed {
		return s.nodes[floor]
	}
	return s.nodes[0]
}

func (s *system) posKey(floor int) localizer.Key {
	return localizer.Key{Building: s.building, Floor: floor, Backend: backend}
}

// position returns the live position localizer of a floor.
func (s *system) position(floor int) (localizer.Localizer, error) {
	snap, ok := s.nodeOf(floor).Registry().Get(s.posKey(floor))
	if !ok {
		return nil, fmt.Errorf("%s not registered", s.posKey(floor))
	}
	return snap.Localizer, nil
}

func (s *system) model(floor int) (*core.Model, error) {
	loc, err := s.position(floor)
	if err != nil {
		return nil, err
	}
	m, ok := localizer.Unwrap(loc).(*core.Model)
	if !ok {
		return nil, fmt.Errorf("%s does not wrap a core.Model", s.posKey(floor))
	}
	return m, nil
}

// buildPool turns every online fingerprint (both floors × six devices) into
// a query, replaces a seeded half by white-box FGSM copies crafted against
// the served model of their floor, and computes the reference answers.
func (s *system) buildPool(online []*fingerprint.Dataset, seed int64) error {
	for f, ds := range online {
		for _, dev := range device.Acronyms() {
			for _, smp := range ds.Test[dev] {
				s.queries = append(s.queries, query{rss: smp.RSS, floor: f, rp: smp.RP})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(s.queries))[:len(s.queries)/2] {
		s.queries[i].attacked = true
	}
	start := time.Now()
	crafted := 0
	for f := range online {
		m, err := s.model(f)
		if err != nil {
			return err
		}
		var idx []int
		for i, q := range s.queries {
			if q.attacked && q.floor == f {
				idx = append(idx, i)
			}
		}
		x, labels := s.matrix(idx), make([]int, len(idx))
		for j, i := range idx {
			labels[j] = s.queries[i].rp
		}
		adv := attack.CraftInto(nil, attack.FGSM, m, x, labels,
			attack.Config{Epsilon: curriculum.DefaultEpsilon, PhiPercent: attackPhi, Seed: seed})
		for j, i := range idx {
			s.queries[i].rss = append([]float64(nil), adv.Row(j)...)
		}
		crafted += len(idx)
	}
	if crafted > 0 {
		s.times.craftPerRow = time.Since(start) / time.Duration(crafted)
	}
	all := make([]int, len(s.queries))
	for i := range all {
		all[i] = i
	}
	return s.reference(all)
}

// matrix stacks the fingerprints of the given queries.
func (s *system) matrix(idx []int) *mat.Matrix {
	cols := s.data[0].NumAPs
	x := mat.New(len(idx), cols)
	for j, i := range idx {
		copy(x.Row(j), s.queries[i].rss)
	}
	return x
}

// reference fills wantFloor and wantRP of the given queries by calling the
// localizers directly: floor stage, then the position stage of that floor.
// Batch rows name their floor, so their floor stage is the label itself.
func (s *system) reference(idx []int) error {
	if s.wl.batch {
		for _, i := range idx {
			s.queries[i].wantFloor = s.queries[i].floor
		}
	} else {
		floors := s.floorLoc.PredictInto(nil, s.matrix(idx))
		for j, i := range idx {
			s.queries[i].wantFloor = floors[j]
		}
	}
	for f := 0; f < numFloors; f++ {
		var on []int
		for _, i := range idx {
			if s.queries[i].wantFloor == f {
				on = append(on, i)
			}
		}
		if len(on) == 0 {
			continue
		}
		loc, err := s.position(f)
		if err != nil {
			return err
		}
		for j, rp := range loc.PredictInto(nil, s.matrix(on)) {
			s.queries[on[j]].wantRP = rp
		}
	}
	return nil
}

func appendRSS(b []byte, rss []float64) []byte {
	b = append(b, `"rss":[`...)
	for i, v := range rss {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

func newRequest(path string, body []byte, rows []int) request {
	wire := rawRequest(path, body)
	return request{wire: wire, body: wire[len(wire)-len(body):], rows: rows}
}

// singleRequest is a /v1/localize POST of one query; floor < 0 leaves the
// floor to the floor stage.
func (s *system) singleRequest(i, floor int) request {
	body := appendRSS([]byte{'{'}, s.queries[i].rss)
	if floor >= 0 {
		body = strconv.AppendInt(append(body, `,"floor":`...), int64(floor), 10)
	}
	return newRequest("/v1/localize", append(body, '}'), []int{i})
}

// buildRequests prebuilds the traffic: one floor-less /v1/localize per query,
// or /v1/localize/batch bodies of batchRows rows that share one explicit
// floor; and the /v1/feedback posts of the labelled floor-0 samples.
func (s *system) buildRequests(seed int64, labelled []fingerprint.Sample) {
	rng := rand.New(rand.NewSource(seed + 1))
	if !s.wl.batch {
		for i := range s.queries {
			s.requests = append(s.requests, s.singleRequest(i, -1))
		}
	} else {
		for f := 0; f < numFloors; f++ {
			var on []int
			for i, q := range s.queries {
				if q.floor == f {
					on = append(on, i)
				}
			}
			rng.Shuffle(len(on), func(a, b int) { on[a], on[b] = on[b], on[a] })
			for len(on) > 0 {
				rows := on[:min(batchRows, len(on))]
				on = on[len(rows):]
				body := []byte(`{"queries":[`)
				for j, i := range rows {
					if j > 0 {
						body = append(body, ',')
					}
					body = appendRSS(append(body, '{'), s.queries[i].rss)
					body = strconv.AppendInt(append(body, `,"floor":`...), int64(f), 10)
					body = append(body, '}')
				}
				s.requests = append(s.requests, newRequest("/v1/localize/batch", append(body, `]}`...), rows))
			}
		}
	}
	for _, smp := range labelled {
		body := appendRSS([]byte{'{'}, smp.RSS)
		body = strconv.AppendInt(append(body, `,"rp":`...), int64(smp.RP), 10)
		s.feedback = append(s.feedback, newRequest("/v1/feedback", append(body, `,"floor":0}`...), nil))
	}
}

// warmUp opens the connections and sends warmupPerConn verified requests down
// each reader.
func (s *system) warmUp() error {
	for c := 0; c < s.wl.readers; c++ {
		rc, err := dialRaw(s.front)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, rc)
	}
	for c := 0; c < s.wl.readers; c++ {
		ck := newChecker(s)
		for k := 0; k < warmupPerConn; k++ {
			r := &s.requests[(c+k*s.wl.readers)%len(s.requests)]
			status, body, err := s.conns[c].roundTrip(r.wire)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if !ck.check(r, status, body) {
				return fmt.Errorf("warm-up: wrong answer (status %d): %.200s", status, body)
			}
		}
	}
	return nil
}
