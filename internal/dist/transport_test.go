package dist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"sparsecut/internal/leakcheck"
	"sparsecut/internal/rng"
)

func TestChanTransportRoundtrip(t *testing.T) {
	tr := NewChanTransport(4)
	want := Message{Kind: MsgLock, From: 1, To: 2, Seq: 7, Edge: 3, X: 0.5}
	if err := tr.Send(want); err != nil {
		t.Fatal(err)
	}
	box, err := tr.Recv(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-box; got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(want); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestChanTransportDropsOnFullMailbox(t *testing.T) {
	tr := NewChanTransport(1)
	if err := tr.Send(Message{To: 0}); err != nil {
		t.Fatal(err)
	}
	// A full mailbox must drop (congestion loss), never block: two actors
	// blocked sending to each other's full mailboxes would deadlock.
	done := make(chan error, 1)
	go func() { done <- tr.Send(Message{To: 0}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Send to full mailbox returned %v, want nil (drop)", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send to full mailbox blocked")
	}
	if got := tr.Congested(); got != 1 {
		t.Errorf("Congested() = %d, want 1", got)
	}
}

// delivered pumps n sequence-numbered messages through tr and reports which
// sequence numbers reach mailbox 0.
func delivered(t *testing.T, tr Transport, n int) []uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{Kind: MsgLock, To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	box, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		select {
		case m := <-box:
			got = append(got, m.Seq)
		default:
			return got
		}
	}
}

func TestDropTransportDeterministicGivenSeed(t *testing.T) {
	const n = 500
	const rate = 0.2
	run := func(seed uint64) []uint64 {
		dt, err := NewDropTransport(NewChanTransport(n), rate, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return delivered(t, dt, n)
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, a[i], b[i])
		}
	}
	if kept := float64(len(a)) / n; kept < 0.7 || kept > 0.9 {
		t.Errorf("kept fraction %.3f far from 1-rate=%.1f", kept, 1-rate)
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical drop patterns over 500 messages")
	}
}

func TestDropTransportCountsDrops(t *testing.T) {
	dt, err := NewDropTransport(NewChanTransport(100), 0.5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := delivered(t, dt, 100)
	if int(dt.Dropped())+len(got) != 100 {
		t.Errorf("dropped %d + delivered %d != 100", dt.Dropped(), len(got))
	}
}

func TestDropTransportValidation(t *testing.T) {
	inner := NewChanTransport(1)
	cases := []struct {
		name  string
		inner Transport
		rate  float64
		r     *rng.RNG
	}{
		{"nil inner", nil, 0.1, rng.New(1)},
		{"negative rate", inner, -0.1, rng.New(1)},
		{"rate one", inner, 1, rng.New(1)},
		{"nil rng", inner, 0.1, nil},
	}
	for _, c := range cases {
		if _, err := NewDropTransport(c.inner, c.rate, c.r); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestDelayTransportDeliversEverything(t *testing.T) {
	const n = 50
	dt, err := NewDelayTransport(NewChanTransport(n), 5*time.Millisecond, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := dt.Send(Message{To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	box, _ := dt.Recv(0)
	seen := make(map[uint64]bool)
	deadline := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case m := <-box:
			seen[m.Seq] = true
		case <-deadline:
			t.Fatalf("only %d/%d messages delivered within 2s", len(seen), n)
		}
	}
}

func TestDelayTransportCloseCancelsPending(t *testing.T) {
	dt, err := NewDelayTransport(NewChanTransport(8), time.Hour, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := dt.Send(Message{To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dt.Send(Message{To: 0}); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
}

func TestDelayTransportValidation(t *testing.T) {
	if _, err := NewDelayTransport(nil, time.Millisecond, rng.New(1)); err == nil {
		t.Error("nil inner: no error")
	}
	if _, err := NewDelayTransport(NewChanTransport(1), -time.Millisecond, rng.New(1)); err == nil {
		t.Error("negative delay: no error")
	}
	if _, err := NewDelayTransport(NewChanTransport(1), time.Millisecond, nil); err == nil {
		t.Error("nil rng: no error")
	}
}

func TestTCPTransportRoundtrip(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Port(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Port(5); err == nil {
		t.Error("out-of-range Port: no error")
	}
	box1, err := tr.Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	box0, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions, including a second message reusing the cached
	// connection.
	for i := 0; i < 3; i++ {
		want := Message{Kind: MsgPropose, From: 0, To: 1, Seq: uint64(i), Edge: 2, X: -1.25}
		if err := tr.Send(want); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-box1:
			if got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered within 2s")
		}
	}
	back := Message{Kind: MsgCommit, From: 1, To: 0, Seq: 9}
	if err := tr.Send(back); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-box0:
		if got != back {
			t.Errorf("got %+v, want %+v", got, back)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reverse message not delivered within 2s")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(back); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
}

func TestTCPTransportValidation(t *testing.T) {
	if _, err := NewTCPTransport(0); err == nil {
		t.Error("zero addresses: no error")
	}
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{To: 3}); err == nil {
		t.Error("send to unknown address: no error")
	}
	if _, err := tr.Recv(-1); err == nil {
		t.Error("recv on negative address: no error")
	}
}

// TestTCPTransportRejectsUnknownPreamble: bytes from outside the program
// must open with the wire preamble. A connection that starts with anything
// else — the retired gob preamble 'G' followed by a real gob stream, a
// well-formed frame with no preamble, plain garbage — is closed with
// nothing delivered, and its serve goroutine exits without waiting for
// Close. The "preamble" case is the control: the same raw dial with the
// right first byte is served.
func TestTCPTransportRejectsUnknownPreamble(t *testing.T) {
	msg := Message{Kind: MsgLock, From: 1, To: 0, Seq: 1, X: 1.5, Epoch: 1}
	var gobStream bytes.Buffer
	gobStream.WriteByte('G')
	if err := gob.NewEncoder(&gobStream).Encode(msg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		served  bool
	}{
		{"retired gob preamble", gobStream.Bytes(), false},
		{"frame without preamble", appendMessage(nil, msg), false},
		{"garbage", []byte{0, 0xff, 0x7f}, false},
		{"preamble", appendMessage([]byte{wirePreamble}, msg), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewTCPTransport(1)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			box, err := tr.Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			port, err := tr.Port(0)
			if err != nil {
				t.Fatal(err)
			}
			base := leakcheck.Snapshot() // the accept loop is already running
			conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", port))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(c.payload); err != nil {
				t.Fatal(err)
			}
			if c.served {
				select {
				case got := <-box:
					if got != msg {
						t.Errorf("got %+v, want %+v", got, msg)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("message behind a valid preamble not delivered within 2s")
				}
				return
			}
			// The transport must hang up: a read sees EOF or a reset,
			// never the deadline.
			if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after a bad preamble (read %d bytes, err %v)", n, err)
			}
			base.Check(t)
			select {
			case got := <-box:
				t.Errorf("delivered %+v from a connection with a bad preamble", got)
			default:
			}
		})
	}
}

// seqBatch returns n LOCKs to address to, numbered by Seq from 0.
func seqBatch(n, to int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = Message{Kind: MsgLock, From: 1, To: to, Seq: uint64(i), X: float64(i) / 4}
	}
	return ms
}

// receiveN reads n messages from box, failing the test after 2s.
func receiveN(t *testing.T, box <-chan Message, n int) []Message {
	t.Helper()
	got := make([]Message, 0, n)
	deadline := time.After(2 * time.Second)
	for len(got) < n {
		select {
		case m := <-box:
			got = append(got, m)
		case <-deadline:
			t.Fatalf("only %d/%d messages delivered within 2s", len(got), n)
		}
	}
	return got
}

// TestTCPTransportBatchOneWrite: a Send of 64 messages to one address
// costs exactly one socket write after the connection's preamble, and all
// 64 arrive in order.
func TestTCPTransportBatchOneWrite(t *testing.T) {
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	want := seqBatch(64, 0)
	if err := tr.Send(want...); err != nil {
		t.Fatal(err)
	}
	if got := tr.Writes(); got != 2 {
		t.Errorf("Writes() = %d after one 64-message Send, want 2 (preamble + batch)", got)
	}
	if got := receiveN(t, box, len(want)); !slices.Equal(got, want) {
		t.Errorf("batch arrived as %+v, want %+v", got, want)
	}
	if tr.Reads() == 0 {
		t.Error("Reads() = 0 after a delivered batch")
	}
}

// TestTCPTransportBatchMixedAddresses: one Send interleaving two
// addresses (one by To, one by the Via override) delivers each address's
// messages complete and in order, in one write per destination.
func TestTCPTransportBatchMixedAddresses(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var batch, want0, want1 []Message
	for i := 0; i < 40; i++ {
		m := Message{Kind: MsgPropose, From: 5, To: 7, Via: 1, Seq: uint64(i)}
		if i%3 == 0 {
			m.Via = 2
			want1 = append(want1, m)
		} else {
			want0 = append(want0, m)
		}
		batch = append(batch, m)
	}
	if err := tr.Send(batch...); err != nil {
		t.Fatal(err)
	}
	if got := tr.Writes(); got != 4 {
		t.Errorf("Writes() = %d, want 4 (two preambles + one write per destination)", got)
	}
	for addr, want := range [][]Message{want0, want1} {
		box, err := tr.Recv(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got := receiveN(t, box, len(want)); !slices.Equal(got, want) {
			t.Errorf("address %d received %+v, want %+v", addr, got, want)
		}
	}
}

// TestTCPTransportBatchErrorSparesHealthyDestinations: a batch naming an
// unknown address returns that error, but the messages for a healthy
// address in the same batch are still delivered.
func TestTCPTransportBatchErrorSparesHealthyDestinations(t *testing.T) {
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	good := Message{Kind: MsgCommit, To: 0, Seq: 3}
	if err := tr.Send(Message{To: 9}, good); err == nil {
		t.Error("batch with an unknown address: no error")
	}
	if got := receiveN(t, box, 1); got[0] != good {
		t.Errorf("healthy destination received %+v, want %+v", got[0], good)
	}
}

// TestDropTransportBatchMatchesSingles: given the same seed, the same
// messages are dropped whether they are sent one at a time, in one batch,
// or in uneven batches — the draws follow message order, not Send calls.
func TestDropTransportBatchMatchesSingles(t *testing.T) {
	const n = 500
	msgs := seqBatch(n, 0)
	run := func(split func([]Message) [][]Message) ([]uint64, int64) {
		dt, err := NewDropTransport(NewChanTransport(n), 0.3, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range split(msgs) {
			if err := dt.Send(b...); err != nil {
				t.Fatal(err)
			}
		}
		return delivered(t, dt, 0), dt.Dropped()
	}
	singles, dropped := run(func(ms []Message) [][]Message {
		var bs [][]Message
		for i := range ms {
			bs = append(bs, ms[i:i+1])
		}
		return bs
	})
	if dropped == 0 || len(singles) == n {
		t.Fatalf("nothing dropped at rate 0.3 (dropped %d, delivered %d)", dropped, len(singles))
	}
	for name, split := range map[string]func([]Message) [][]Message{
		"one batch": func(ms []Message) [][]Message { return [][]Message{ms} },
		"uneven":    func(ms []Message) [][]Message { return [][]Message{ms[:1], ms[1:7], ms[7:7], ms[7:300], ms[300:]} },
	} {
		got, d := run(split)
		if !slices.Equal(got, singles) || d != dropped {
			t.Errorf("%s: delivered %v (dropped %d), want %v (dropped %d) as sent singly", name, got, d, singles, dropped)
		}
	}
}

// TestChanTransportBatchMatchesSingles: a batch delivers exactly what the
// same messages sent singly deliver, in the same order, and a full
// mailbox drops the batch's overflow as congestion.
func TestChanTransportBatchMatchesSingles(t *testing.T) {
	msgs := append(seqBatch(6, 0), seqBatch(4, 1)...)
	var got [2][][]Message
	var congested [2]int64
	for leg := range got {
		tr := NewChanTransport(5)
		if leg == 0 {
			for _, m := range msgs {
				if err := tr.Send(m); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tr.Send(msgs...); err != nil {
			t.Fatal(err)
		}
		for addr := 0; addr < 2; addr++ {
			box, _ := tr.Recv(addr)
			got[leg] = append(got[leg], receiveN(t, box, len(box)))
		}
		congested[leg] = tr.Congested()
	}
	for addr := 0; addr < 2; addr++ {
		if !slices.Equal(got[0][addr], got[1][addr]) {
			t.Errorf("address %d: batch delivered %+v, singles %+v", addr, got[1][addr], got[0][addr])
		}
	}
	if congested[0] != 1 || congested[1] != 1 {
		t.Errorf("Congested() = %d singly, %d batched; want 1 each (6 messages into a 5-slot mailbox)", congested[0], congested[1])
	}
}

// TestDelayTransportBatchMatchesSingles: given the same seed, a batch
// schedules and delivers exactly the messages the same sends made singly
// do (each on its own timer, so arrival order is the delays' business).
func TestDelayTransportBatchMatchesSingles(t *testing.T) {
	const n = 50
	msgs := seqBatch(n, 0)
	var got [2][]uint64
	for leg := range got {
		dt, err := NewDelayTransport(NewChanTransport(n), time.Millisecond, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if leg == 0 {
			for _, m := range msgs {
				if err := dt.Send(m); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := dt.Send(msgs...); err != nil {
			t.Fatal(err)
		}
		if d := dt.Delayed(); d != n {
			t.Errorf("leg %d: Delayed() = %d, want %d", leg, d, n)
		}
		box, _ := dt.Recv(0)
		for _, m := range receiveN(t, box, n) {
			got[leg] = append(got[leg], m.Seq)
		}
		slices.Sort(got[leg])
		if err := dt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got[0], got[1]) {
		t.Errorf("batch delivered %v, singles %v", got[1], got[0])
	}
}
