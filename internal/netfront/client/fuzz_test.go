package client

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
)

// Request ids of the fuzz fixture's pending work, in the order the client
// allocates them: the stream is opened first, then the one-shot. The seeds
// also address fuzzRetiredID, an id no request holds.
const (
	fuzzStreamID  = 0
	fuzzOneShotID = 1
	fuzzRetiredID = 2
)

// frameRetiredBatchResult is version 3's batch result type, 0x85, now an
// unknown response frame that fails the generation.
const frameRetiredBatchResult = 0x85

// replyFrame assembles one response frame from its body parts.
func replyFrame(typ byte, parts ...[]byte) []byte {
	var body []byte
	for _, p := range parts {
		body = append(body, p...)
	}
	return append(netfront.AppendFrameHeader(nil, typ, len(body)), body...)
}

// u32 and u64 are little-endian field encoders for the seeds.
func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// clientReplySeeds returns one well-formed frame of every reply type,
// addressed to the fixture's pending work, plus truncated, count-lie,
// wrong-shape and unknown-type variants. The retired batch results stay
// as seeds: each must now fail the generation as an unknown frame.
func clientReplySeeds() [][]byte {
	werr := netfront.AppendWireError(nil, netfront.WireError{Code: netfront.CodeBusy, RetryAfter: 3 * time.Millisecond, Msg: "busy"})
	health := netfront.AppendHealthAck(nil, fuzzOneShotID, []core.ModelHealth{{
		Model: "kws", Version: 2,
		Shards: []core.ShardStatus{{State: core.BreakerClosed, Workers: 2, Live: 2}},
	}})
	wellFormed := [][]byte{
		replyFrame(netfront.FrameResult, u32(fuzzOneShotID), u32(7)),
		replyFrame(netfront.FrameBusy, u32(fuzzOneShotID), u32(5)),
		replyFrame(netfront.FrameError, u32(fuzzOneShotID), werr),
		replyFrame(netfront.FrameError, u32(fuzzStreamID), werr),
		replyFrame(frameRetiredBatchResult, u32(fuzzRetiredID), u32(2), u32(1), u32(2)),
		replyFrame(netfront.FrameStreamResult, u32(fuzzStreamID), u64(0), u32(4)),
		replyFrame(netfront.FrameStreamError, u32(fuzzStreamID), u64(1), werr),
		replyFrame(netfront.FrameStreamClosed, u32(fuzzStreamID), u64(1)),
		replyFrame(netfront.FrameHelloAck, u32(fuzzOneShotID), u64(3)),
		replyFrame(netfront.FrameHealthAck, health),
	}
	seeds := append([][]byte{}, wellFormed...)
	// Every reply together, as one stream.
	var all []byte
	for _, s := range wellFormed {
		all = append(all, s...)
	}
	seeds = append(seeds, all)
	// Truncated: header only, header cut short, body cut short.
	res := wellFormed[0]
	seeds = append(seeds, res[:netfront.HeaderLen], res[:2], res[:len(res)-1])
	// Count lies: a batch result claiming more labels than it carries,
	// and one claiming 2^32-1.
	seeds = append(seeds,
		replyFrame(frameRetiredBatchResult, u32(fuzzRetiredID), u32(3), u32(1)),
		replyFrame(frameRetiredBatchResult, u32(fuzzRetiredID), u32(0xFFFFFFFF)),
	)
	// Well-framed replies of the wrong shape for their request: an empty
	// batch result and a hello ack under the one-shot's id, a one-label
	// batch result under the retired id.
	seeds = append(seeds,
		replyFrame(frameRetiredBatchResult, u32(fuzzOneShotID), u32(0)),
		replyFrame(netfront.FrameHelloAck, u32(fuzzOneShotID), u64(1)),
		replyFrame(frameRetiredBatchResult, u32(fuzzRetiredID), u32(1), u32(1)),
	)
	// Unknown reply type, and a request type sent back as a reply.
	seeds = append(seeds,
		replyFrame(0x7F, u32(fuzzOneShotID)),
		replyFrame(netfront.FrameUtterance, u32(fuzzOneShotID), u32(0)),
	)
	return seeds
}

// FuzzClientReplies serves arbitrary bytes to a Client as the server's side
// of the connection while a stream and a one-shot are pending. The client
// must not panic or hang; the one-shot must end with its reply, a
// server-reported error (*BusyError, *RemoteError) or ErrConnLost; and
// once the peer hangs up the connection must have failed with ErrConnLost
// — directly, or through the protocol-violation path a malformed frame
// takes.
func FuzzClientReplies(f *testing.F) {
	for _, s := range clientReplySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cliEnd, srvEnd := net.Pipe()
		read := make(chan struct{}, 2)
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer srvEnd.Close()
			var hdr [netfront.HeaderLen]byte
			var buf []byte
			for i := 0; i < 2; i++ {
				_, b, err := netfront.ReadFrame(srvEnd, &hdr, buf, netfront.DefaultMaxBody)
				if err != nil {
					return
				}
				buf = b
				read <- struct{}{}
			}
			// The write fails early when the client hangs up mid-data over
			// a protocol violation; either way the peer then closes.
			srvEnd.Write(data)
		}()

		c, err := DialOptions("pipe", "fuzz", Options{DialFunc: func(string, string) (net.Conn, error) { return cliEnd, nil }})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st, err := c.OpenStream(func(hop uint64, label int, err error) {})
		if err != nil {
			t.Fatal(err)
		}
		<-read
		var oneShotErr error
		oneShotDone := make(chan struct{})
		go func() {
			defer close(oneShotDone)
			_, oneShotErr = c.Classify([]int16{1, 2, 3, 4})
		}()
		<-read

		timeout := time.NewTimer(5 * time.Second)
		defer timeout.Stop()
		wait := func(what string, ch <-chan struct{}) {
			select {
			case <-ch:
			case <-timeout.C:
				t.Fatalf("client hung: %s", what)
			}
		}
		checkErr := func(what string, err error) {
			var busy *BusyError
			var remote *RemoteError
			if err != nil && !errors.Is(err, ErrConnLost) && !errors.As(err, &busy) && !errors.As(err, &remote) {
				t.Fatalf("%s: error outside the documented set: %v", what, err)
			}
		}
		wait("one-shot", oneShotDone)
		checkErr("one-shot", oneShotErr)
		wait("server side", served)
		cc := c.cc
		wait("connection failure", cc.done)
		if !errors.Is(cc.err, ErrConnLost) {
			t.Fatalf("connection ended with %v, want ErrConnLost", cc.err)
		}
		wait("stream", st.closed)
	})
}
