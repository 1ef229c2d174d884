package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"

	"sparsecut/internal/graph"
)

// wire.go: the compact binary codec for Message on the TCP transport.
//
// A reflection-based encoding such as encoding/gob spends ~10x the bytes
// and far more CPU than the protocol needs: every stream re-transmits type
// metadata, and every Encode walks reflection. This codec instead writes
// one length-prefixed frame per message:
//
//	uvarint  frame length (bytes following the prefix)
//	byte     Kind
//	byte     Re
//	varint   From   (zigzag)
//	varint   To     (zigzag)
//	varint   Via    (zigzag)
//	varint   Edge   (zigzag)
//	uvarint  Epoch
//	uvarint  Seq
//	8 bytes  X      (IEEE 754 bits, little endian)
//
// Typical protocol frames are 15–25 bytes versus gob's ~90. The codec is
// structural only: it round-trips ANY Message value, including ones the
// protocol would never produce (negative addresses, unknown kinds) —
// semantic validation belongs to Machine.Deliver, and a codec that rejects
// nothing but malformed bytes is the property the fuzzer can pin down.
//
// Every connection opens with wirePreamble, once, before its first frame.
// It is a format check, not a negotiation: the accepting side closes a
// connection that starts with any other byte. See tcp.go.

// wirePreamble is the first byte on every connection. It is printable and
// outside the plausible first bytes of a frame stream (a frame opens with
// its small length prefix), so a peer speaking anything else fails fast
// rather than decoding garbage.
const wirePreamble = 'S'

// maxWireFrame bounds a frame's declared payload length. The largest
// encodable Message is well under 100 bytes; anything bigger is garbage
// and is rejected before any allocation happens.
const maxWireFrame = 128

var (
	errFrameTooBig = errors.New("dist: wire frame exceeds maximum size")
	errFrameShort  = errors.New("dist: wire frame truncated")
	errFrameLong   = errors.New("dist: wire frame has trailing bytes")
)

// appendMessage appends m's frame (length prefix included) to buf and
// returns the extended slice.
func appendMessage(buf []byte, m Message) []byte {
	var body [maxWireFrame]byte
	n := 0
	body[n] = byte(m.Kind)
	n++
	body[n] = byte(m.Re)
	n++
	n += binary.PutVarint(body[n:], int64(m.From))
	n += binary.PutVarint(body[n:], int64(m.To))
	n += binary.PutVarint(body[n:], int64(m.Via))
	n += binary.PutVarint(body[n:], int64(m.Edge))
	n += binary.PutUvarint(body[n:], m.Epoch)
	n += binary.PutUvarint(body[n:], m.Seq)
	binary.LittleEndian.PutUint64(body[n:], math.Float64bits(m.X))
	n += 8
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(buf, body[:n]...)
}

// decodeFrame decodes one frame body (the bytes after the length prefix).
// Every byte must be consumed: truncated or over-long bodies are rejected.
func decodeFrame(body []byte) (Message, error) {
	var m Message
	if len(body) < 2 {
		return m, errFrameShort
	}
	m.Kind = MsgKind(body[0])
	m.Re = MsgKind(body[1])
	p := body[2:]
	readVarint := func() (int64, error) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, errFrameShort
		}
		p = p[n:]
		return v, nil
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errFrameShort
		}
		p = p[n:]
		return v, nil
	}
	from, err := readVarint()
	if err != nil {
		return m, err
	}
	to, err := readVarint()
	if err != nil {
		return m, err
	}
	via, err := readVarint()
	if err != nil {
		return m, err
	}
	edge, err := readVarint()
	if err != nil {
		return m, err
	}
	if m.Epoch, err = readUvarint(); err != nil {
		return m, err
	}
	if m.Seq, err = readUvarint(); err != nil {
		return m, err
	}
	if len(p) < 8 {
		return m, errFrameShort
	}
	m.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
	p = p[8:]
	if len(p) != 0 {
		return m, errFrameLong
	}
	m.From = int(from)
	m.To = int(to)
	m.Via = int(via)
	m.Edge = graph.EdgeID(edge)
	// int shrinks on 32-bit platforms and Edge always shrinks; reject
	// frames whose values do not survive the narrowing instead of
	// silently aliasing them.
	if int64(m.From) != from || int64(m.To) != to || int64(m.Via) != via || int64(m.Edge) != edge {
		return m, errors.New("dist: wire frame field overflows platform int")
	}
	return m, nil
}

// decodeMessage decodes the first complete frame in buf, returning the
// message and the total bytes consumed (prefix + body).
func decodeMessage(buf []byte) (Message, int, error) {
	size, n := binary.Uvarint(buf)
	if n <= 0 {
		return Message{}, 0, errFrameShort
	}
	if size > maxWireFrame {
		return Message{}, 0, errFrameTooBig
	}
	if uint64(len(buf)-n) < size {
		return Message{}, 0, errFrameShort
	}
	m, err := decodeFrame(buf[n : n+int(size)])
	if err != nil {
		return Message{}, 0, err
	}
	return m, n + int(size), nil
}

// wireReadBuf is the accepting side's read buffer: one read syscall pulls
// in up to this many bytes, a few hundred typical frames.
const wireReadBuf = 4096

// wireReader decodes a stream of frames from r (the per-connection reader
// loop on the accepting side of a TCP transport). It reads ahead through a
// buffer: one reader owns a connection for its whole life, so bytes of the
// next frames are never stranded.
type wireReader struct {
	r   *bufio.Reader
	buf [maxWireFrame]byte
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(r, wireReadBuf)}
}

// readMessage reads exactly one frame. io.EOF on a clean frame boundary is
// returned as-is; a stream that ends mid-frame yields ErrUnexpectedEOF.
func (w *wireReader) readMessage() (Message, error) {
	size, err := binary.ReadUvarint(w.r)
	if err != nil {
		return Message{}, err
	}
	if size > maxWireFrame {
		return Message{}, errFrameTooBig
	}
	body := w.buf[:size]
	if _, err := io.ReadFull(w.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	return decodeFrame(body)
}
