package congestalg

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// queueGossip is the reference GossipExact's message order is pinned to:
// the same records, rebuild and solve, but every record the node keeps is
// copied onto one queue per neighbour except the one it came from, and
// each round sends the head of every non-empty queue.
type queueGossip struct {
	info       congest.NodeInfo
	rebuilt    *graphs.Graph
	known      []bool
	knownCount int
	degSum     int
	arena      recArena
	queues     [][][]byte
	solved     bool
	result     []graphs.NodeID
}

func queueGossipPrograms(n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &queueGossip{}
	}
	return programs
}

func (q *queueGossip) Init(info congest.NodeInfo) {
	q.info = info
	q.rebuilt = graphs.NewWithN(info.N)
	for i := 0; i < info.N; i++ {
		q.rebuilt.AddNodeID(0)
	}
	q.known = make([]bool, info.N)
	q.queues = make([][][]byte, len(info.Neighbors))
	self := nodeRecord{id: info.ID, weight: info.Weight, degree: len(info.Neighbors)}
	q.learn(self)
	q.enqueue(encodeNodeRecord(self), -1)
	for _, v := range info.Neighbors {
		if info.ID < v {
			q.rebuilt.MustAddEdge(info.ID, v)
			q.enqueue(encodeEdgeRecord(edgeRecord{u: info.ID, v: v}), -1)
		}
	}
}

func (q *queueGossip) learn(r nodeRecord) {
	q.known[r.id] = true
	q.knownCount++
	q.degSum += r.degree
	q.rebuilt.SetWeight(r.id, r.weight)
}

// enqueue copies data onto the queue of every neighbour except the one at
// index except.
func (q *queueGossip) enqueue(data []byte, except int) {
	data = q.arena.retain(data)
	for i := range q.queues {
		if i != except {
			q.queues[i] = append(q.queues[i], data)
		}
	}
}

func (q *queueGossip) Round(_ int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		nr, er, kind, err := decodeRecord(m.Data)
		if err != nil {
			panic(err)
		}
		from := neighborIndex(q.info.Neighbors, m.From)
		switch {
		case kind == wireNode && !q.known[nr.id]:
			q.learn(nr)
			q.enqueue(m.Data, from)
		case kind == wireEdge && !q.rebuilt.HasEdge(er.u, er.v):
			q.rebuilt.MustAddEdge(er.u, er.v)
			q.enqueue(m.Data, from)
		}
	}
	var out []congest.Message
	for i, v := range q.info.Neighbors {
		if len(q.queues[i]) > 0 {
			out = append(out, congest.Message{From: q.info.ID, To: v, Data: q.queues[i][0]})
			q.queues[i] = q.queues[i][1:]
		}
	}
	if !q.solved && q.knownCount == q.info.N && q.rebuilt.M() == q.degSum/2 {
		q.solved = true
		sol, err := mis.Exact(q.rebuilt, mis.Options{})
		if err != nil {
			panic(err)
		}
		q.result = append([]graphs.NodeID(nil), sol.Set...)
		sort.Ints(q.result)
	}
	return out
}

func (q *queueGossip) Done() bool {
	if !q.solved {
		return false
	}
	for _, queue := range q.queues {
		if len(queue) > 0 {
			return false
		}
	}
	return true
}

func (q *queueGossip) Output() any { return q.result }

// delivered is one message as the engine's hook saw it.
type delivered struct {
	round    int
	from, to int
	data     string
}

func recordTo(tx *[]delivered) congest.MessageHook {
	return func(round int, m congest.Message) error {
		*tx = append(*tx, delivered{round, m.From, m.To, string(m.Data)})
		return nil
	}
}

// shapeGraph returns an n-node graph with weights 1–5 holding the edges
// {u, v}, u < v, that keep selects.
func shapeGraph(n int, keep func(u, v int) bool) *graphs.Graph {
	g := graphs.NewWithN(n)
	for u := 0; u < n; u++ {
		g.AddNodeID(int64(u%5 + 1))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if keep(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// TestGossipExactMatchesQueueReference pins GossipExact's forwarding order:
// alone, with the deprecated Parallel and Workers set, and in a batch,
// each delivered message (round, sender, receiver, payload), the run's
// Stats and every node's Output equal those of the per-neighbour-queue
// reference.
func TestGossipExactMatchesQueueReference(t *testing.T) {
	nets := []struct {
		name string
		g    *graphs.Graph
	}{
		{"random-n40-p0.08", allocTestGraph(t, 40, 0.08, 4242)},
		{"random-n32-p0.3", allocTestGraph(t, 32, 0.3, 1729)},
		{"star-16", shapeGraph(16, func(u, _ int) bool { return u == 0 })},
		{"path-20", shapeGraph(20, func(u, v int) bool { return v == u+1 })},
		{"clique-12", shapeGraph(12, func(int, int) bool { return true })},
	}
	type run struct {
		res congest.Result
		tx  []delivered
	}
	same := func(t *testing.T, engine string, got, want run) {
		t.Helper()
		if _, err := ExactSetFromOutputs(got.res); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("%s: result %+v, reference %+v", engine, got.res, want.res)
		}
		if len(got.tx) != len(want.tx) {
			t.Fatalf("%s: %d messages, reference %d", engine, len(got.tx), len(want.tx))
		}
		for i := range got.tx {
			if g, w := got.tx[i], want.tx[i]; g != w {
				t.Fatalf("%s: message %d is round %d %d→%d [% x], reference round %d %d→%d [% x]",
					engine, i, g.round, g.from, g.to, g.data, w.round, w.from, w.to, w.data)
			}
		}
	}

	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			for _, e := range []struct {
				name string
				cfg  congest.Config
			}{
				{"sequential", congest.Config{}},
				{"parallel-w4", congest.Config{Parallel: true, Workers: 4}},
			} {
				var got, want run
				cfg := e.cfg
				cfg.Hook = recordTo(&got.tx)
				got.res = runPrograms(t, tc.g, NewGossipExactPrograms(n), cfg)
				cfg.Hook = recordTo(&want.tx)
				want.res = runPrograms(t, tc.g, queueGossipPrograms(n), cfg)
				same(t, e.name, got, want)
			}
		})
	}

	// One lockstep batch holds every network twice: GossipExact at even
	// positions, the reference at odd ones.
	items := make([]congest.BatchItem, 0, 2*len(nets))
	txs := make([][]delivered, 2*len(nets))
	for i, tc := range nets {
		items = append(items,
			congest.BatchItem{Graph: tc.g, Programs: NewGossipExactPrograms(tc.g.N()), Config: congest.Config{Hook: recordTo(&txs[2*i])}},
			congest.BatchItem{Graph: tc.g, Programs: queueGossipPrograms(tc.g.N()), Config: congest.Config{Hook: recordTo(&txs[2*i+1])}})
	}
	results, errs, _ := congest.RunBatch(context.Background(), items)
	for i, tc := range nets {
		if errs[2*i] != nil || errs[2*i+1] != nil {
			t.Fatalf("%s/batch: %v, reference %v", tc.name, errs[2*i], errs[2*i+1])
		}
		same(t, tc.name+"/batch", run{results[2*i], txs[2*i]}, run{results[2*i+1], txs[2*i+1]})
	}
}
