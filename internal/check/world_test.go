package check

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
)

// corpusSchedules reads the committed FuzzSchedule seed corpus.
func corpusSchedules(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSchedule", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(body), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = []byte(s)
	}
	return out
}

// nodesSnapshot deep-copies a world's nodes, watermarks included.
func nodesSnapshot(w *world) []dist.NodeState {
	out := append([]dist.NodeState(nil), w.nodes...)
	for i := range out {
		out[i].LastApplied = append([]uint64(nil), out[i].LastApplied...)
	}
	return out
}

// TestFrameIsolation walks the seed corpus' schedules (and FuzzSchedule's
// two inline seeds) and, at every step,
// applies every enabled action to a frame filled by copyFrom. The source
// world must come out unchanged: same hash, same nodes, same watermarks.
// A frame whose LastApplied still pointed into its source's watermark
// array after the copy would write the source's watermarks here.
func TestFrameIsolation(t *testing.T) {
	spec, opt := fuzzSystem()
	opt = opt.withDefaults()
	scheds := corpusSchedules(t)
	scheds["seed#0"] = []byte{0, 0, 0, 0, 0, 0}
	scheds["seed#1"] = []byte{0, 1, 2, 0, 1, 0, 0, 0, 1, 2}
	applies := 0 // frame actions that moved a watermark
	for name, sched := range scheds {
		w, err := newWorld(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		frame := w.blank()
		var acts []Action
		for step, b := range sched {
			acts = w.enabled(acts)
			if len(acts) == 0 {
				break
			}
			h, nodes, la := w.hash(), nodesSnapshot(w), append([]uint64(nil), w.la...)
			for _, a := range acts {
				frame.copyFrom(w)
				if err := frame.apply(a); err != nil {
					t.Fatalf("%s step %d: %s: %v", name, step, a.Op, err)
				}
				if w.hash() != h || !reflect.DeepEqual(w.nodes, nodes) || !reflect.DeepEqual(w.la, la) {
					t.Fatalf("%s step %d: applying %+v to a copied frame changed its source", name, step, a)
				}
				if !reflect.DeepEqual(frame.la, la) {
					applies++
				}
			}
			if err := w.apply(acts[int(b)%len(acts)]); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
		}
	}
	if applies == 0 {
		t.Fatal("no frame action moved a watermark; the test proves nothing")
	}
	t.Logf("%d frame actions moved a watermark", applies)
}

// TestHashSeesNackRe: two worlds that differ only in which request an
// in-flight NACK answers have different futures (the initiator aborts on
// one, the responder rolls back on the other), so they must not hash
// alike and be merged by the explorer's dedup.
func TestHashSeesNackRe(t *testing.T) {
	var h [2]uint64
	for i, re := range []dist.MsgKind{dist.MsgLock, dist.MsgPropose} {
		w, err := newWorld(triangleSpec(), faultOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		w.net = append(w.net, dist.Message{Kind: dist.MsgNack, From: 1, To: 0, Seq: 1, Re: re})
		h[i] = w.hash()
	}
	if h[0] == h[1] {
		t.Fatalf("a NACK answering a LOCK and one answering a PROPOSE hash alike (%#x)", h[0])
	}
}

// TestNewWorldRejectsUnhashableSizes: msgKey packs node IDs into 8 bits and
// seqs into 24, so a system whose messages could overflow those fields is
// refused instead of silently aliasing distinct messages in the hash.
func TestNewWorldRejectsUnhashableSizes(t *testing.T) {
	ring := func(n int) Spec {
		return Spec{Graph: graph.Cycle(n), X0: make([]float64, n), Rule: Vanilla()}
	}
	cases := []struct {
		name  string
		spec  Spec
		inits int
		want  string // "" means accepted
	}{
		{"256 nodes", ring(256), 2, ""},
		// The densest graph that fits: its 32 640 edges fit msgKey's 16-bit
		// edge field, which is why there is no separate edge limit.
		{"clique of 256", Spec{Graph: graph.Complete(256), X0: make([]float64, 256), Rule: Vanilla()}, 2, ""},
		{"257 nodes", ring(257), 2, "257 nodes"},
		{"300 nodes", ring(300), 2, "300 nodes"},
		{"inits just below 2^24", ring(3), 1<<24 - 1, ""},
		{"inits 2^24", ring(3), 1 << 24, "initiation budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newWorld(tc.spec, Options{MaxInitiations: tc.inits}.withDefaults())
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}
