package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"congestlb"
	"congestlb/internal/graphs"
	"congestlb/internal/serve"
)

// opSeed derives the seed of operation i of a run seeded with seed
// (splitmix64), so every operation's inputs are fixed by the run seed
// alone, whichever client happens to execute it.
func opSeed(seed int64, stream string, i int) int64 {
	z := uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15
	for _, c := range []byte(stream) {
		z = z*31 + uint64(c)
	}
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & (1<<63 - 1))
}

// graphCase is one generated solve input: the wire spec sent to the
// service and the same graph built locally to verify answers against.
type graphCase struct {
	spec  serve.GraphSpec
	graph *congestlb.Graph
	body  []byte // the encoded SolveRequest
}

// randomGraph draws G(n, p) with node weights uniform in 1..8.
func randomGraph(rng *rand.Rand, n int, p float64) (graphCase, error) {
	spec := serve.GraphSpec{N: n, Weights: make([]int64, n)}
	g := graphs.NewWithN(n)
	for v := 0; v < n; v++ {
		spec.Weights[v] = 1 + rng.Int63n(8)
		g.AddNodeID(spec.Weights[v])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				spec.Edges = append(spec.Edges, [2]int{u, v})
				if err := g.AddEdge(u, v); err != nil {
					return graphCase{}, err
				}
			}
		}
	}
	body, err := json.Marshal(serve.SolveRequest{Graph: spec})
	if err != nil {
		return graphCase{}, err
	}
	return graphCase{spec: spec, graph: g, body: body}, nil
}

// client is a closed-loop HTTP client of the service: one keep-alive
// connection per benchmark client goroutine.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one synchronous job request and decodes the job view and,
// when the job finished, its result into result. The round trip is
// recorded as an http.post span under sp, with the server-reported job
// time as its serve.job child, and the decoding as client.decode.
func (c *client) post(sp *active, path, key string, body []byte, result any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set("Content-Type", "application/json")
	hs := sp.child("http.post")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("POST %s: %w", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("POST %s: reading body: %w", path, err)
	}
	got := time.Now()
	ds := sp.child("client.decode")
	defer ds.end()
	var view serve.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		hs.endAt(got)
		return resp.StatusCode, fmt.Errorf("POST %s: status %d: %w", path, resp.StatusCode, err)
	}
	hs.inner("serve.job", got, time.Duration(view.WallMS*float64(time.Millisecond)))
	hs.endAt(got)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	if view.Status != serve.JobDone {
		return resp.StatusCode, fmt.Errorf("POST %s: job %s: %s", path, view.Status, view.Error)
	}
	if err := json.Unmarshal(view.Result, result); err != nil {
		return resp.StatusCode, fmt.Errorf("POST %s: result: %w", path, err)
	}
	return resp.StatusCode, nil
}
