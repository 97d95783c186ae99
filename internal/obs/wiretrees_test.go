package obs

import "time"

// The fixed span trees behind the wire golden (testdata/wire_*.json):
// every time is an offset from wireEpoch, so the encoding of a tree is a
// pure function of the tree.

var wireEpoch = time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)

func wireAt(us int64) time.Time { return wireEpoch.Add(wireUS(us)) }

func wireUS(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

// wireOperatorTree is a wsqd.query root over an operator tree whose
// dependent join re-opens its inner scan and whose operators carry extras.
func wireOperatorTree() *Span {
	root := &Span{Op: "wsqd.query", Detail: "w1", Start: wireAt(0), Dur: wireUS(12000), Rows: 3}
	rs := root.AddChild(&Span{Op: "ReqSync", Start: wireAt(40), Dur: wireUS(11800), Rows: 3, Opens: 1})
	rs.AddExtra("patched", 3)
	rs.AddExtra("settled", 3)
	dj := rs.AddChild(&Span{Op: "DependentJoin", Start: wireAt(60), Dur: wireUS(900), Rows: 3, Opens: 1})
	dj.AddChild(&Span{Op: "Scan", Detail: "States S [S.Name <> 'Texas']", Start: wireAt(70), Dur: wireUS(310), Rows: 3, Opens: 1})
	aev := dj.AddChild(&Span{Op: "AEVScan", Detail: "WebCount", Start: wireAt(400), Dur: wireUS(420), Rows: 3, Opens: 3})
	aev.AddExtra("calls", 3)
	aev.AddExtra("cache_hits", 1)
	return root
}

// wirePumpCallTree is an AEVScan with two async pump calls: one failed
// attempt and its retry after a queue wait, and one answered by a peer
// shard whose cache get is tagged with the home node.
func wirePumpCallTree() *Span {
	aev := &Span{Op: "AEVScan", Detail: "WebCount", Start: wireAt(0), Dur: wireUS(800), Rows: 2, Opens: 1}
	aev.AddExtra("calls", 2)
	call := aev.AddAsyncChild(&Span{Op: "pump.call", Detail: "altavista", Start: wireAt(20), Dur: wireUS(5400)})
	call.AddExtra("queue_us", 250)
	call.AddChild(&Span{Op: "pump.attempt", Detail: "failed", Start: wireAt(270), Dur: wireUS(2000)})
	call.AddChild(&Span{Op: "pump.retry", Start: wireAt(3300), Dur: wireUS(2100)})
	peer := aev.AddAsyncChild(&Span{Op: "pump.call", Detail: "altavista peer_hit", Start: wireAt(30), Dur: wireUS(900)})
	peer.AddExtra("queue_us", 5)
	fetch := peer.AddChild(&Span{Op: "shard.peer.fetch", Detail: "hit", Start: wireAt(40), Dur: wireUS(850), Rows: 1})
	fetch.AddChild(&Span{Op: "shard.cache.get", Detail: "hit", Node: "w2", Start: wireAt(100), Dur: wireUS(120)})
	return aev
}

// wireStitchedSQL and the attempt times below describe a coordinator
// query whose first attempt failed on w2 and whose second ran on w1.
const wireStitchedSQL = "SELECT Name, Count FROM States, WebCount WHERE Name = T1"

const (
	wireAttempt1Start, wireAttempt1Dur = 15, 300
	wireAttempt2Start, wireAttempt2Dur = 330, 12500
	wireCoordDur                       = 12900
)

// wireStoredTrace is a stored trace captured for both the error and the
// slow policy, rooted at root.
func wireStoredTrace() *StoredTrace {
	return &StoredTrace{
		TraceID:   "0af7651916cd43dd8448eb211c80319c",
		SQL:       wireStitchedSQL,
		Node:      "w1",
		StartedAt: wireEpoch,
		ElapsedMS: 12.345,
		Error:     "context deadline exceeded",
		Slow:      true,
	}
}
