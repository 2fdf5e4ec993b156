package codec

import (
	"fmt"
	"sync"

	"totoro/internal/transport"
)

// Preamble opens every codec-v2 byte stream. A receiver reads four bytes
// and closes a connection that does not start with them, so a stranger on
// the port is turned away before any frame is parsed.
var Preamble = [4]byte{0x00, 'T', 'W', '2'}

// MaxFrameBytes is the default cap a transport should place on one
// frame's claimed body length before allocating for it.
const MaxFrameBytes = 64 << 20

// EncodeFrame appends one transport frame body — the sender's address
// followed by the tagged message — to e. The transport prefixes the body
// with its uvarint length on the stream. The only possible error is a
// payload — msg or a value nested in it — whose type has no codec.
//
//vet:noalloc
func EncodeFrame(e *Enc, from transport.Addr, msg any) error {
	e.String(string(from))
	e.Value(msg)
	return e.Err()
}

// FrameSize returns the exact on-stream cost of sending msg from the given
// address over the v2 transport: the frame body (EncodeFrame) plus its
// uvarint length prefix, so simulators can charge exactly what tcpnet would
// transmit. It is one EncodeFrame pass over a counting Enc: the codecs add
// up lengths and no payload byte is read or written. It fails exactly when
// EncodeFrame does, with the same error.
//
//vet:noalloc
func FrameSize(from transport.Addr, msg any) (int, error) {
	e := NewEnc()
	defer e.Free()
	e.counting = true
	if err := EncodeFrame(e, from, msg); err != nil {
		return 0, err
	}
	return uvarintLen(uint64(e.n)) + e.n, nil
}

var decPool = sync.Pool{New: func() any { return new(Dec) }}

// DecodeFrame decodes one frame body produced by EncodeFrame. The decoded
// message never aliases b, so the caller may recycle the buffer. Trailing
// garbage after the message is an error: a well-formed frame is consumed
// exactly.
func DecodeFrame(b []byte) (from transport.Addr, msg any, err error) {
	d := decPool.Get().(*Dec)
	*d = Dec{buf: b}
	from = transport.Addr(d.String())
	msg = d.Value()
	err, rem := d.Err(), d.Rem()
	d.buf = nil // do not pin the caller's buffer while pooled
	decPool.Put(d)
	if err != nil {
		return "", nil, err
	}
	if rem != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, rem)
	}
	return from, msg, nil
}
