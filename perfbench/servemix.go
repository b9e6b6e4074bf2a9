package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
	"pulsedos/internal/serve"
)

// Shape of serve-mixed: each round posts one fresh gamma-sweep batch (the
// cold unit), then both clients replay cached documents in bursts (the warm
// units) while one fresh single document computes on a worker. The sweep and
// its attack are those of the shipped scenarios/fig6-gain-sweep.json, with a
// shorter warm-up and measurement. The repository records no traffic of
// pdos-serve, so the hit:miss mix (8 computed runs against 128 hits a round)
// is chosen, not observed: a burst of 8 requests keeps each warm sample near
// 3 ms rather than one sub-millisecond request, and 8 bursts a client give
// every run far more than minTailSamples warm samples.
const (
	serveBurst         = 8 // requests per warm unit (each a POST and an artifact GET)
	serveBurstsPerSide = 8 // warm units per client per round
	serveSampled       = 3 // documents whose served artifacts are recomputed directly
)

// serveGammas are the sweep values of each round's fresh batch, those of
// scenarios/fig6-gain-sweep.json.
var serveGammas = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// serveDocs renders round r's documents: the sweep carrier the cold batch
// posts, the plain point documents its expansion yields (what the warm phase
// re-requests), and one fresh single document. Seeds are distinct per round,
// so every round's keys are new.
func serveDocs(seed uint64, r int) (carrier []byte, points [][]byte, fresh []byte) {
	s := seed*100000 + 2*uint64(r) + 1
	name := fmt.Sprintf("serve-%d-%d", seed, r)
	const tpl = `{"name":%q,"topology":{"kind":"dumbbell","flows":15},` +
		`"attack":{"kind":"aimd","rateMbps":25,"extentMs":50%s},"warmupSec":2,"measureSec":4,"seed":%d%s}`
	vals, _ := json.Marshal(serveGammas)
	carrier = []byte(fmt.Sprintf(tpl, name, "", s, `,"measure":{"sweep":{"axis":"gamma","values":`+string(vals)+`}}`))
	for _, g := range serveGammas {
		gs := strconv.FormatFloat(g, 'g', -1, 64)
		points = append(points, []byte(fmt.Sprintf(tpl, name+"/gamma="+gs, `,"gamma":`+gs, s, "")))
	}
	fresh = []byte(fmt.Sprintf(tpl, name+"-fresh", `,"gamma":0.45`, s+1, ""))
	return carrier, points, fresh
}

// runStatus is the client's decoding of a run's JSON status.
type runStatus struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	State     string   `json:"state"`
	Cached    bool     `json:"cached"`
	Error     string   `json:"error"`
	Artifacts []string `json:"artifacts"`
}

type batchEntry struct {
	ID     string     `json:"id"`
	Error  string     `json:"error"`
	Status *runStatus `json:"status"`
}

// client is one closed-loop HTTP client with its own connection.
type client struct {
	base string
	http *http.Client
}

func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// submit posts one document; wait blocks until the run is terminal.
func (c *client) submit(doc []byte, wait bool) (runStatus, error) {
	path := "/runs"
	if wait {
		path += "?wait=1"
	}
	data, code, err := c.do("POST", path, doc)
	if err != nil {
		return runStatus{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return runStatus{}, fmt.Errorf("POST %s: HTTP %d: %s", path, code, data)
	}
	var st runStatus
	return st, json.Unmarshal(data, &st)
}

// batch posts a batch of documents.
func (c *client) batch(docs [][]byte, wait bool) ([]batchEntry, error) {
	body := append([]byte("["), bytes.Join(docs, []byte(","))...)
	body = append(body, ']')
	path := "/runs/batch"
	if wait {
		path += "?wait=1"
	}
	data, code, err := c.do("POST", path, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, code, data)
	}
	var out []batchEntry
	return out, json.Unmarshal(data, &out)
}

// await follows a run's event stream to its terminal status.
func (c *client) await(id string) (runStatus, error) {
	resp, err := c.http.Get(c.base + "/runs/" + id + "/events")
	if err != nil {
		return runStatus{}, err
	}
	defer resp.Body.Close()
	var last runStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return runStatus{}, err
		}
	}
	return last, sc.Err()
}

// artifact fetches one artifact of a run.
func (c *client) artifact(id, name string) ([]byte, error) {
	data, code, err := c.do("GET", "/runs/"+id+"/artifacts/"+name, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET artifact %s of %s: HTTP %d", name, id, code)
	}
	return data, err
}

// served is one completed run in the client's tally.
type served struct {
	doc []byte
	st  runStatus
}

// serveEnv is one live server with its two clients.
type serveEnv struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	clients [2]*client
	pool    [][]byte // documents known to be cached
	runs    []servedRun
	tally   statusTally
	round   int
}

func startServe(dir string) (*serveEnv, error) {
	srv, err := serve.New(serve.Options{CacheDir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()
	for i := range e.clients {
		e.clients[i] = &client{
			base: "http://" + ln.Addr().String(),
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		}
	}
	return e, nil
}

// stop closes the listener and connections, waits for the serve loop, and
// stops the server's workers.
func (e *serveEnv) stop() {
	e.hs.Close()
	<-e.done
	for _, c := range e.clients {
		c.http.CloseIdleConnections()
	}
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// record adds finished runs to the client's tally.
func (e *serveEnv) record(runs ...served) {
	for _, r := range runs {
		e.runs = append(e.runs, servedRun{doc: string(r.doc), state: r.st.State, cached: r.st.Cached})
		e.tally.requests++
		if r.st.Cached {
			e.tally.hits++
		} else {
			e.tally.misses++
		}
	}
}

// reqSpan is one timed HTTP request, named by its per-layer metric.
type reqSpan struct {
	name       string
	start, end time.Time
}

// roundTimes are one round's timings.
type roundTimes struct {
	cold, coldCPU float64
	bursts        []float64 // warm units
	reqs          []reqSpan // batch admission (traced rounds), fresh run, hits, artifact gets
}

// oneRound runs one cold batch and one warm phase. startTrace and
// stopTrace, when non-nil, bracket the cold unit; stopTrace runs after the
// unit's clock is read.
func (e *serveEnv) oneRound(seed uint64, traced bool, startTrace func() error, stopTrace func()) (roundTimes, error) {
	var rt roundTimes
	r := e.round
	e.round++
	carrier, points, fresh := serveDocs(seed, r)
	a := e.clients[0]

	// Cold unit: the fresh batch, computed by the pool.
	if startTrace != nil {
		if err := startTrace(); err != nil {
			return rt, err
		}
	}
	t := startUnit()
	var entries []batchEntry
	var err error
	if traced {
		t0 := time.Now()
		entries, err = a.batch([][]byte{carrier}, false)
		rt.reqs = append(rt.reqs, reqSpan{"serve.batch_admit_ms", t0, time.Now()})
		for i := range entries {
			if err == nil && entries[i].Error == "" {
				var st runStatus
				st, err = a.await(entries[i].ID)
				entries[i].Status = &st
			}
		}
	} else {
		entries, err = a.batch([][]byte{carrier}, true)
	}
	rt.cold, rt.coldCPU = t.stop()
	if stopTrace != nil {
		stopTrace()
	}
	if err != nil {
		return rt, fmt.Errorf("cold batch: %w", err)
	}
	if len(entries) != len(points) {
		return rt, fmt.Errorf("cold batch: %d entries for %d sweep points", len(entries), len(points))
	}
	for i, en := range entries {
		if en.Error != "" || en.Status == nil {
			return rt, fmt.Errorf("cold batch entry %d: %q", i, en.Error)
		}
		e.record(served{doc: points[i], st: *en.Status})
	}
	e.pool = append(e.pool, points...)

	// Warm phase: client A's fresh document computes on a worker while
	// client B replays cached documents; then A replays too.
	var wg sync.WaitGroup
	var warm [2]struct {
		runs   []served
		bursts []float64
		reqs   []reqSpan
		err    error
	}
	var fst runStatus
	for ci, c := range e.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			w := &warm[ci]
			if ci == 0 {
				t0 := time.Now()
				if fst, w.err = c.submit(fresh, true); w.err != nil {
					return
				}
				w.reqs = append(w.reqs, reqSpan{"serve.miss_ms", t0, time.Now()})
			}
			rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(r)*2 + int64(ci)))
			for k := 0; k < serveBurstsPerSide; k++ {
				tb := time.Now()
				for q := 0; q < serveBurst; q++ {
					doc := e.pool[rng.Intn(len(e.pool))]
					th := time.Now()
					st, err := c.submit(doc, true)
					tg := time.Now()
					if err == nil {
						_, err = c.artifact(st.ID, scenario.ArtifactResult)
					}
					if err != nil {
						w.err = err
						return
					}
					w.reqs = append(w.reqs, reqSpan{"serve.hit_ms", th, tg}, reqSpan{"serve.artifact_get_ms", tg, time.Now()})
					w.runs = append(w.runs, served{doc: doc, st: st})
				}
				w.bursts = append(w.bursts, time.Since(tb).Seconds())
			}
		}(ci, c)
	}
	wg.Wait()
	for _, w := range warm {
		if w.err != nil {
			return rt, fmt.Errorf("warm phase: %w", w.err)
		}
	}
	e.record(served{doc: fresh, st: fst})
	e.pool = append(e.pool, fresh)
	for _, w := range warm {
		e.record(w.runs...)
		rt.bursts = append(rt.bursts, w.bursts...)
		rt.reqs = append(rt.reqs, w.reqs...)
	}
	return rt, nil
}

// runServe drives serve-mixed against an in-process pdos-serve core on
// loopback.
func runServe(b *bench) error {
	var env *serveEnv
	n := 0
	if err := b.timeSetups(func() (err error) {
		n++
		env, err = startServe(filepath.Join(b.dir, fmt.Sprintf("serve-%d", n)))
		if err != nil {
			return err
		}
		_, err = env.oneRound(b.seed, false, nil, nil) // warm-up unit
		return err
	}, func() { env.stop() }); err != nil {
		if env != nil {
			env.stop()
		}
		return err
	}
	defer env.stop()

	// The traced cold unit follows each run's event stream to time batch
	// admission apart, so the tracing overhead is measured on the warm
	// bursts, which make the same requests traced or not.
	var bursts, tracedBursts []float64
	b.measureStart()
	for i := 0; b.more(i); i++ {
		b.rec.setUnit(i)
		traced := b.traced && i%2 == 1
		before := env.srv.Cache().Stats()
		var start func() error
		var stop func()
		if traced {
			var tr unitTrace
			start = func() (err error) { tr, err = b.startTrace(); return err }
			stop = func() { b.check(tr.stop(b)) }
		}
		rt, err := env.oneRound(b.seed, traced, start, stop)
		b.attempted += len(serveGammas) + 1 + 2*serveBurstsPerSide*serveBurst
		if err != nil {
			b.failed++
			return err
		}
		after := env.srv.Cache().Stats()
		b.countLayer("runcache.hits", float64(after.Hits-before.Hits))
		b.countLayer("runcache.misses", float64(after.Misses-before.Misses))
		b.countLayer("runcache.deduped", float64(after.Deduped-before.Deduped))
		b.countLayer("runcache.bytes", float64(after.Bytes-before.Bytes))
		if traced {
			tracedBursts = append(tracedBursts, rt.bursts...)
			for _, q := range rt.reqs {
				b.rec.add(q.name, q.start, q.end, i)
				ms := float64(q.end.Sub(q.start)) / 1e6
				b.addLayer(q.name, ms)
				if q.name == "serve.hit_ms" {
					b.addLayer("serve.hit_p90_ms", ms)
				}
			}
			carrier, points, _ := serveDocs(b.seed, env.round-1)
			b.check(b.serveLayers(carrier, points))
			continue
		}
		b.add("cold_s", rt.cold)
		b.add("cold_cpu_s", rt.coldCPU)
		bursts = append(bursts, rt.bursts...)
		for _, w := range rt.bursts {
			b.add("warm_s", w)
		}
	}
	if b.traced {
		b.addLayer("trace.overhead_pct", overheadPct(tracedBursts, bursts))
	}

	// Outside the timed units: served artifacts of sampled documents against
	// a direct computation, then the server's counters against the tally.
	rng := rand.New(rand.NewSource(int64(b.seed)))
	a := env.clients[0]
	for k := 0; k < serveSampled; k++ {
		doc := env.pool[rng.Intn(len(env.pool))]
		st, err := a.submit(doc, true)
		if b.op(err) != nil {
			return err
		}
		env.record(served{doc: doc, st: st})
		got := make(map[string][]byte)
		for _, name := range st.Artifacts {
			if got[name], err = a.artifact(st.ID, name); err != nil {
				return err
			}
		}
		cfg, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		want, err := scenario.ComputeArtifacts(context.Background(), cfg, nil)
		if err != nil {
			return err
		}
		b.check(identical("served artifacts vs direct ComputeArtifacts", want, got))
	}
	b.check(checkCachedExactlyRepeats(env.runs))
	data, code, err := a.do("GET", "/status", nil)
	if err != nil || code != http.StatusOK {
		return errors.Join(err, fmt.Errorf("GET /status: HTTP %d", code))
	}
	var status struct {
		Queue struct{ Completed, Failed, Canceled uint64 }
		Cache runcache.Stats
	}
	if err := json.Unmarshal(data, &status); err != nil {
		return err
	}
	b.check(checkStatus(status.Queue.Completed, status.Queue.Failed, status.Queue.Canceled,
		status.Cache.Hits, status.Cache.Misses, status.Cache.Entries, env.tally))
	return nil
}

// serveLayers times the scenario, topo and runcache layer calls a request
// goes through, on one round's documents, outside the timed units.
func (b *bench) serveLayers(carrier []byte, points [][]byte) error {
	var cfg scenario.Config
	if err := b.timed("scenario.load_ms", func() (err error) {
		cfg, err = scenario.Load(bytes.NewReader(carrier))
		return err
	}); err != nil {
		return err
	}
	var pts []scenario.Config
	if err := b.timed("scenario.expand_ms", func() (err error) {
		pts, err = cfg.Expand()
		return err
	}); err != nil {
		return err
	}
	scratch, err := runcache.Open(filepath.Join(b.dir, "put-scratch"), 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch.Root())
	leg, err := runLeg(b, points[0], true)
	if err != nil {
		return err
	}
	for _, p := range pts {
		var key string
		if err := b.timed("scenario.key_ms", func() (err error) {
			if _, err = p.Canonical(); err != nil {
				return err
			}
			key, err = scenario.Key(p)
			return err
		}); err != nil {
			return err
		}
		if err := b.timed("runcache.put_ms", func() error {
			return scratch.Put(key, p.Name, experiments.EngineVersion, leg.files)
		}); err != nil {
			return err
		}
		if err := b.timed("runcache.get_ms", func() error {
			if _, ok := scratch.Get(key); !ok {
				return fmt.Errorf("runcache: scratch store misses %s", key)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
