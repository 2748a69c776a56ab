package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/scene"
	"repro/internal/service"
)

const (
	// clients is the closed loop's size: each client submits its next
	// job only after the previous reply, and there are never more
	// clients (or connections) than the 2 cores the benchmark is sized
	// for.
	clients = 2
	// copies is how many new specs each (scene, policy, bounce) gets in
	// a session: 4 scenes x 7 policies x 3 bounces x 2 = 168 new specs,
	// plus a third as many resubmissions, is 224 submissions — enough
	// that p95 has at least 10 jobs beyond it.
	copies = 2
)

// jobKind is the part of the drsd path a submission exercises.
type jobKind int

const (
	kindFresh    jobKind = iota // new spec, workload already built
	kindObserved                // new spec with the metrics registry on
	kindRepeat                  // resubmits an earlier spec: the read path
	kindMiss                    // new render size: a workload-cache miss
)

var kindNames = [...]string{"fresh", "observed", "dedup", "build_miss"}

// job is one submission of the seeded session.
type job struct {
	kind   jobKind
	orig   int // session index of the first submission of this spec
	policy string
	body   []byte // JSON spec
}

// warmupScenes are built before the timed phase; missScenes are the
// closed scenes whose small renders still leave rays at bounce 3.
var (
	warmupScenes = scene.Benchmarks
	missScenes   = []scene.Benchmark{scene.ConferenceRoom, scene.CrytekSponza}
)

// jobMix generates one drsd session's seeded submissions: run jobs at
// the spec defaults (4000 tris, 160x120) with 512-2048-ray caps. Every
// seed gives the same composition — each (scene, policy, bounce) twice
// as a new spec, 1/4 of all submissions observed, about 1/10 at a
// render size not built yet, 1/4 resubmitting an earlier spec — so
// seeds differ in caps, sizes, order and which specs are observed or
// missed, not in how much work a session holds.
func jobMix(seed uint64) []job {
	rng := seededRand(seed, "drsd-mix/jobs")
	type spec struct {
		scene  scene.Benchmark
		policy string
		bounce int
		cap    int
		kind   jobKind
		size   [2]int
	}
	var specs []spec
	for _, b := range warmupScenes {
		for _, p := range policies() {
			for bounce := 1; bounce <= 3; bounce++ {
				for c := 0; c < copies; c++ {
					specs = append(specs, spec{scene: b, policy: p, bounce: bounce})
				}
			}
		}
	}
	n := len(specs)
	total := n + n/3
	// Caps cover the range evenly: one per stratum of width 1537/n.
	for i, k := range rng.Perm(n) {
		specs[i].cap = 512 + (k*1537+rng.IntN(1537))/n
	}
	for _, i := range rng.Perm(n)[:total/4] {
		specs[i].kind = kindObserved
	}
	var missable []int
	for i, s := range specs {
		if s.kind == kindFresh && (s.scene == missScenes[0] || s.scene == missScenes[1]) {
			missable = append(missable, i)
		}
	}
	rng.Shuffle(len(missable), func(i, j int) { missable[i], missable[j] = missable[j], missable[i] })
	sizes := make(map[[3]int]bool)
	for _, i := range missable[:total/10] {
		s := &specs[i]
		s.kind = kindMiss
		for s.size == [2]int{} || sizes[[3]int{int(s.scene), s.size[0], s.size[1]}] {
			s.size = [2]int{88 + rng.IntN(17), 66 + rng.IntN(13)}
		}
		sizes[[3]int{int(s.scene), s.size[0], s.size[1]}] = true
	}
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// Resubmissions take total-n of the slots after the first and name
	// a random earlier first submission.
	repeat := make([]bool, total)
	for _, k := range rng.Perm(total - 1)[:total-n] {
		repeat[k+1] = true
	}
	seen := make(map[string]bool)
	var jobs []job
	var firsts []int
	next := 0
	for i := range repeat {
		if repeat[i] {
			j := jobs[firsts[rng.IntN(len(firsts))]]
			j.kind = kindRepeat
			jobs = append(jobs, j)
			continue
		}
		s := specs[next]
		next++
		var body string
		for {
			size := ""
			if s.kind == kindMiss {
				size = fmt.Sprintf(`,"width":%d,"height":%d`, s.size[0], s.size[1])
			}
			body = fmt.Sprintf(`{"kind":"run","scene":%q,"policy":%q,"bounce":%d,"max_rays_per_bounce":%d,"observe":%t%s}`,
				s.scene, s.policy, s.bounce, s.cap, s.kind == kindObserved, size)
			if !seen[body] {
				break
			}
			s.cap = 512 + (s.cap-512+1)%1537 // two copies drew one cap
		}
		seen[body] = true
		firsts = append(firsts, len(jobs))
		jobs = append(jobs, job{kind: s.kind, orig: len(jobs), policy: s.policy, body: []byte(body)})
	}
	return jobs
}

// drsdBench drives an in-process drsd — service, artifact store and
// HTTP handler on httptest — with a closed loop of clients. Every round
// is one session of the seeded job mix on a freshly started service, so
// rounds repeat the same work and every reply can be compared byte for
// byte with the first round's.
type drsdBench struct {
	scratch string
	jobs    []job
	firsts  map[int][32]byte // digest of each spec's first completion

	dir    string
	store  *artifact.Store
	svc    *service.Service
	srv    *httptest.Server
	served bool // the running service has had its session

	// Traced-round accumulations; counts from the first traced round.
	aggs     map[string]*simAgg
	svcDelta map[string]int64
	lat      [len(kindNames)][]float64
	getLat   []float64
	bodies   map[string][]byte // artifact id -> first-completion body
}

func newDrsdMix(seed uint64, scratch string) workload {
	return &drsdBench{scratch: scratch, jobs: jobMix(seed), firsts: make(map[int][32]byte)}
}

func (b *drsdBench) setup(ctx context.Context, tr *tracer) error {
	return b.start(ctx, tr)
}

// start replaces the running service with a fresh one: a new store in
// a new directory, the service and its HTTP server, and one warm-up job
// per scene so every default-size workload is built.
func (b *drsdBench) start(ctx context.Context, tr *tracer) error {
	if err := b.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.scratch, "drsd-")
	if err != nil {
		return err
	}
	b.dir = dir
	id := tr.begin("artifact.Open", 0)
	b.store, err = artifact.Open(artifact.Config{Dir: dir})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("service.New", 0)
	b.svc = service.New(service.Config{Workers: 2, Store: b.store})
	b.srv = httptest.NewServer(b.svc.Handler())
	tr.end(id)
	b.served = false
	for _, sc := range warmupScenes {
		spec := fmt.Sprintf(`{"kind":"run","scene":%q,"policy":"aila","bounce":1,"max_rays_per_bounce":256}`, sc)
		if out := b.submit(ctx, tr, 0, []byte(spec)); out.err != nil {
			return fmt.Errorf("warm-up %s: %w", sc, out.err)
		}
	}
	return nil
}

func (b *drsdBench) prepare() {}

// jobOut is one submission's outcome: the blocking POST and the
// artifact GET that follows it.
type jobOut struct {
	postS, getS float64
	id          string
	post, get   []byte
	err         error
}

// submit posts one spec with ?wait=1, then fetches its artifact.
func (b *drsdBench) submit(ctx context.Context, tr *tracer, parent int, spec []byte) jobOut {
	var out jobOut
	id := tr.begin("http.post_job", parent)
	t0 := time.Now()
	out.post, out.err = b.call(ctx, http.MethodPost, "/v1/jobs?wait=1", spec)
	out.postS = time.Since(t0).Seconds()
	tr.end(id)
	if out.err != nil {
		return out
	}
	var head struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out.post, &head); err != nil || head.ID == "" {
		out.err = fmt.Errorf("job reply without an id: %v", err)
		return out
	}
	out.id = head.ID
	id = tr.begin("http.get_artifact", parent)
	t0 = time.Now()
	out.get, out.err = b.call(ctx, http.MethodGet, "/v1/artifacts/"+head.ID, nil)
	out.getS = time.Since(t0).Seconds()
	tr.end(id)
	return out
}

// call makes one HTTP request and returns the body of a 2xx reply.
func (b *drsdBench) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := b.srv.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (b *drsdBench) round(ctx context.Context, tr *tracer) (roundResult, error) {
	if b.served {
		if err := b.start(ctx, newTracer(false, "")); err != nil {
			return roundResult{}, err
		}
	}
	b.served = true
	jobs := b.jobs
	outs := make([]jobOut, len(jobs))
	first := tr.on && b.aggs == nil
	var before map[string]int64
	if first {
		var err error
		if before, err = b.serviceCounters(ctx); err != nil {
			return roundResult{}, err
		}
	}
	root := tr.begin("round", 0)
	var next atomic.Int64
	wall, alloc, _ := measure(func() error {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					outs[i] = b.submit(ctx, tr, root, jobs[i].body)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	tr.end(root)

	r := roundResult{wall: wall, alloc: alloc, jobs: make([]float64, len(jobs))}
	if first {
		b.aggs = make(map[string]*simAgg)
		b.bodies = make(map[string][]byte)
		after, err := b.serviceCounters(ctx)
		if err != nil {
			return r, err
		}
		b.svcDelta = make(map[string]int64)
		for k, v := range after {
			b.svcDelta[k] = v - before[k]
		}
	}
	for i, j := range jobs {
		o := outs[i]
		r.jobs[i] = o.postS
		r.attempted += 2 // the POST and the artifact GET
		if o.err != nil {
			r.failed += 2
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", j.orig, kindNames[j.kind], o.err)
			continue
		}
		d := sha256.Sum256(o.post)
		want, seen := b.firsts[j.orig]
		if !seen {
			want = d
			b.firsts[j.orig] = d
		}
		if j.kind != kindRepeat { // executed on this round's service
			n, err := b.noteFirst(o, j, first)
			if err != nil {
				r.failed += 2
				fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", j.orig, err)
				continue
			}
			r.simInstrs += n
		}
		if d != want {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %d: reply differs from the spec's first completion\n", j.orig)
		}
		if sha256.Sum256(o.get) != want {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %d: stored artifact differs from the spec's first completion\n", j.orig)
		}
		if tr.on {
			b.lat[j.kind] = append(b.lat[j.kind], o.postS)
			b.getLat = append(b.getLat, o.getS)
		}
	}
	return r, nil
}

// noteFirst reads the artifact of a spec's first submission in a round:
// the warp instructions it simulated and, in the first traced round,
// its metrics snapshot and body for the artifact probe.
func (b *drsdBench) noteFirst(o jobOut, j job, traced bool) (int64, error) {
	var art struct {
		WarpInstrs int64            `json:"warp_instrs"`
		Metrics    map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal(o.post, &art); err != nil {
		return 0, fmt.Errorf("decoding the run artifact: %w", err)
	}
	if traced {
		if art.Metrics != nil {
			if b.aggs[j.policy] == nil {
				b.aggs[j.policy] = &simAgg{}
			}
			b.aggs[j.policy].addSnapshot(art.Metrics)
		}
		b.bodies[o.id] = o.post
	}
	return art.WarpInstrs, nil
}

// serviceCounters reads the service's /metrics snapshot.
func (b *drsdBench) serviceCounters(ctx context.Context) (map[string]int64, error) {
	data, err := b.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

func (b *drsdBench) layers(ctx context.Context, tr *tracer, m *metricSet) error {
	p := experiments.DefaultParams()
	p.Tris, p.Width, p.Height = 4000, 160, 120 // the job spec defaults
	if err := buildProbe(tr, warmupScenes, p, m); err != nil {
		return err
	}
	addSimMetrics(m, b.aggs)
	if err := observeOverhead(ctx, tr, m); err != nil {
		return err
	}
	for k, name := range kindNames {
		m.add("service."+name+"_p50_ms", median(b.lat[k])*1e3, "ms")
	}
	m.add("service.http_get_p50_ms", median(b.getLat)*1e3, "ms")
	d := b.svcDelta
	m.add("service.dedup_ratio", ratio(float64(d["service/jobs_deduped"]),
		float64(d["service/jobs_submitted"]+d["service/jobs_deduped"]+d["service/artifact_hits"])), "ratio")
	m.add("service.workload_build_ratio", ratio(float64(d["service/workload_builds"]),
		float64(d["service/workload_builds"]+d["service/workload_hits"])), "ratio")
	m.add("service.retries", float64(d["service/retries"]), "count")
	return b.artifactProbe(tr, m)
}

// artifactProbe stores and reads back the traced round's artifacts on
// a scratch store, timing Store.Put and the digest-verified Store.Get.
func (b *drsdBench) artifactProbe(tr *tracer, m *metricSet) error {
	dir, err := os.MkdirTemp(b.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	ids := make([]string, 0, len(b.bodies))
	total := 0
	for id, body := range b.bodies {
		ids = append(ids, id)
		total += len(body)
	}
	var puts, gets []float64
	for _, id := range ids {
		sp := tr.begin("artifact.Put", 0)
		t0 := time.Now()
		err := st.Put(id, b.bodies[id])
		puts = append(puts, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for _, id := range ids {
		sp := tr.begin("artifact.Get", 0)
		t0 := time.Now()
		got, _, err := st.Get(id)
		gets = append(gets, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, b.bodies[id]) {
			return fmt.Errorf("artifact probe: %s read back different bytes", id[:12])
		}
	}
	m.add("artifact.put_p50_ms", median(puts)*1e3, "ms")
	m.add("artifact.get_p50_us", median(gets)*1e6, "us")
	m.add("artifact.bytes_per_job", ratio(float64(total), float64(len(ids))), "bytes")
	return nil
}

func (b *drsdBench) report(w io.Writer) {
	counts := make([]int, len(kindNames))
	for _, j := range b.jobs {
		counts[j.kind]++
	}
	fmt.Fprintf(w, "session jobs=%d clients=%d", len(b.jobs), clients)
	for k, n := range kindNames {
		fmt.Fprintf(w, " %s=%d", n, counts[k])
	}
	fmt.Fprintln(w)
}

// close stops the HTTP server, drains the service, closes the store
// and removes it.
func (b *drsdBench) close() error {
	if b.srv == nil {
		return nil
	}
	b.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := b.svc.Drain(ctx)
	if cerr := b.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	b.srv, b.svc, b.store = nil, nil, nil
	return err
}
