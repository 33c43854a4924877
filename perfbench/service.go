package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	serviceWorkers = 2
	historyJobs    = 512 // the server's default terminal-job retention
	warmupJobs     = 8
	setupReps      = 5
	repeatEvery    = 4
	repeatWindow   = 8 // a repeat picks one of its client's last 8 fresh jobs
)

// storeOpts opens every store of the benchmark with the journal's
// per-append fsync off. The benchmark may write only inside its
// checkout, which sits on a shared disk, so this stands in for a journal
// on a memory-backed filesystem, where fsync costs nothing. In six
// alternating 20 s small-jobs pairs on a 2-vCPU ext4 host, fsync-on runs
// ranged 311–478 jobs/s and fsync-off runs 528–622. Result snapshots
// are still written with fsync.
var storeOpts = store.Options{NoFsync: true}

// tenants is the two-tenant table both service workloads run under.
var tenants = []serve.TenantConfig{
	{ID: "acme", Key: "k-acme", Weight: 3},
	{ID: "beta", Key: "k-beta", Weight: 1},
}

// service is one in-process job server on a journaled store, listening on
// loopback.
type service struct {
	reg  *obs.Registry
	st   *store.Store
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
	hc   *http.Client
}

func startService(dir string) (*service, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(dir, reg, storeOpts)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: serviceWorkers, Registry: reg, Store: st, Tenants: tenants,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(bgCtx)
		st.Close()
		return nil, err
	}
	s := &service{
		reg: reg, st: st, srv: srv,
		hs:   &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener, the server and the store, and waits for the
// serving goroutine to end.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(bgCtx, 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx), s.st.Close())
}

// waitReady polls /readyz until it answers 200.
func (s *service) waitReady() error {
	for i := 0; i < 1000; i++ {
		resp, err := s.hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server never became ready")
}

// counter reads a store or serve counter from the server's registry.
func (s *service) counter(name string) int64 {
	v, _ := s.reg.Snapshot().Counter(name)
	return v
}

// jobOut is everything one client saw of one job.
type jobOut struct {
	seed     uint64
	repeatOf int // index of the repeated job in the client's list, -1 when fresh
	status   int // HTTP status of the submission
	err      string
	state    string
	cached   bool
	events   int
	lat      time.Duration
	end      time.Duration // completion offset from the start of the phase
	// Server-side lifecycle from the job view.
	submitted, started, finished time.Time
	rawSum, canon                [32]byte
}

func (j *jobOut) refused() bool {
	return j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable
}

func (j *jobOut) ok() bool { return j.err == "" && j.state == string(serve.StateDone) }

// do sends one request with the tenant key and returns the response.
func (s *service) do(method, path, key string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.hc.Do(req)
}

// runJob submits one job, follows its event stream to the end and
// fetches the result, the way an API client waits for a job. The
// latency ends when the result has arrived; hashing it comes after.
func (s *service) runJob(tr *tracer, client, trials int, seed uint64, phase0 time.Time) jobOut {
	out := jobOut{seed: seed, repeatOf: -1}
	t0 := time.Now()
	root := tr.begin("job", open{})
	v, err := s.exchange(tr, root, &out, tenants[client].Key, mcBody(trials, seed))
	tr.end(root)
	now := time.Now()
	out.lat, out.end = now.Sub(t0), now.Sub(phase0)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.state, out.cached, out.submitted = string(v.State), v.Cached, v.Submitted
	if v.Started != nil && v.Finished != nil {
		out.started, out.finished = *v.Started, *v.Finished
		tr.add("serve.queue", root, out.submitted, out.started)
		tr.add("serve.run", root, out.started, out.finished)
	}
	out.rawSum = sha256.Sum256(v.Result)
	if out.canon, err = canonSum(v.Result); err != nil {
		out.err = err.Error()
	}
	return out
}

// exchange makes the three requests of one job under root: submit,
// event stream and result fetch.
func (s *service) exchange(tr *tracer, root open, out *jobOut, key string, body []byte) (*serve.View, error) {
	sp := tr.begin("serve.submit", root)
	resp, err := s.do(http.MethodPost, "/v1/jobs", key, body)
	if err != nil {
		return nil, err
	}
	out.status = resp.StatusCode
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	tr.end(sp)
	if out.status != http.StatusAccepted && out.status != http.StatusOK {
		return nil, fmt.Errorf("submit: HTTP %d", out.status)
	}
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	sp = tr.begin("serve.events", root)
	last, n, err := s.follow(ack.ID, key)
	tr.end(sp)
	out.events = n
	tr.count("serve.event_lines", int64(n))
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if last != string(serve.StateDone) {
		return nil, fmt.Errorf("events: stream ended with %q", last)
	}

	sp = tr.begin("serve.get", root)
	defer tr.end(sp)
	resp, err = s.do(http.MethodGet, "/v1/jobs/"+ack.ID, key, nil)
	if err != nil {
		return nil, fmt.Errorf("get: %w", err)
	}
	defer resp.Body.Close()
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get: HTTP %d %v", resp.StatusCode, err)
	}
	return &v, nil
}

// follow reads a job's NDJSON event stream to its end and returns the
// type of the last event and the number of lines.
func (s *service) follow(id, key string) (last string, n int, err error) {
	resp, err := s.do(http.MethodGet, "/v1/jobs/"+id+"/events", key, nil)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var lastLine []byte
	for sc.Scan() {
		n++
		lastLine = append(lastLine[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return "", n, err
	}
	var ev serve.Event
	if err := json.Unmarshal(lastLine, &ev); err != nil {
		return "", n, fmt.Errorf("last event: %w", err)
	}
	return ev.Type, n, nil
}

// loadSpec says what a closed loop submits.
type loadSpec struct {
	clients int
	trials  int
	seed    uint64
	stream  uint64        // seed stream of the fresh specs
	repeats bool          // every repeatEvery-th submission repeats a recent spec
	perCli  int           // stop each client after this many jobs (0 = no limit)
	dur     time.Duration // stop submitting after this long (0 = no limit)
}

// closedLoop runs ls.clients clients, each submitting its next job only
// after the previous one's result arrived, and returns each client's
// jobs in submission order.
func (s *service) closedLoop(tr *tracer, ls loadSpec) [][]jobOut {
	out := make([][]jobOut, ls.clients)
	phase0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < ls.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(deriveSeed(ls.seed, streamRepeats+ls.stream, uint64(c), 0))))
			var jobs []jobOut
			var fresh []int // indexes of fresh jobs in jobs
			for k := 0; (ls.perCli == 0 || k < ls.perCli) && (ls.dur == 0 || time.Since(phase0) < ls.dur); k++ {
				seed, rep := deriveSeed(ls.seed, ls.stream, uint64(c), uint64(k)), -1
				if ls.repeats && k%repeatEvery == repeatEvery-1 && len(fresh) > 0 {
					lo := max(0, len(fresh)-repeatWindow)
					rep = fresh[lo+rng.Intn(len(fresh)-lo)]
					seed = jobs[rep].seed
				}
				j := s.runJob(tr, c, ls.trials, seed, phase0)
				j.repeatOf = rep
				if rep < 0 {
					fresh = append(fresh, len(jobs))
				}
				jobs = append(jobs, j)
			}
			out[c] = jobs
		}(c)
	}
	wg.Wait()
	return out
}

// copyDir copies a store directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
