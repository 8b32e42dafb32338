// Streaming client: continuous audio to an omg-serve front end over a Unix
// socket, results arriving through per-hop callbacks in hop order.
//
// It demonstrates the network serving edge (internal/netfront): a stream is
// opened over the wire, audio is sent in arbitrary-size chunks, and the
// server — one shared core.Server worker pool — classifies one fingerprint
// per completed 20 ms hop, pushing each result back as it completes. A
// one-shot classification rounds out the protocol's two request kinds, and
// a small batch shows one-shots pipelined on the same connection.
//
// Run against a live server:
//
//	go run ./cmd/omg-serve -unix /tmp/omg.sock &
//	go run ./examples/streaming-client -sock /tmp/omg.sock
//
// Run standalone (no server flag): the example stands up an in-process
// front end on a temporary socket first, so it works out of the box.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

func main() {
	sock := flag.String("sock", "", "Unix socket of a running omg-serve (empty: serve in-process)")
	flag.Parse()

	path := *sock
	if path == "" {
		// No server given: stand one up in-process, exactly as omg-serve
		// would (same model seed, so labels match a default omg-serve).
		dir, err := os.MkdirTemp("", "omg-stream")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "omg.sock")
		model, err := tflm.BuildRandomTinyConv(1, 7)
		if err != nil {
			log.Fatal(err)
		}
		srv, err := core.NewServer(model, core.ServerConfig{Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		l, err := net.Listen("unix", path)
		if err != nil {
			log.Fatal(err)
		}
		fe := netfront.NewFrontEnd(srv, netfront.Config{})
		go fe.Serve(l)
		defer fe.Close()
		fmt.Println("serving in-process on", path)
	}

	c, err := client.Dial("unix", path)
	if err != nil {
		log.Fatalf("dial %s: %v (is omg-serve running?)", path, err)
	}
	defer c.Close()

	// Continuous audio: a few synthesized keywords back to back, as a
	// microphone would deliver them.
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	var signal []int16
	for i, word := range []string{"yes", "no", "stop", "go"} {
		signal = append(signal, gen.Utterance(word, i, 0)...)
	}

	// The stream: results arrive through this callback, strictly in hop
	// order, while we are still sending audio.
	s, err := c.OpenStream(func(hop uint64, label int, err error) {
		if err != nil {
			fmt.Printf("  hop %3d: error: %v\n", hop, err)
			return
		}
		fmt.Printf("  hop %3d: class %d (%s)\n", hop, label, speechcmd.LabelName(label))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %d samples in 1000-sample chunks:\n", len(signal))
	for off := 0; off < len(signal); off += 1000 {
		end := min(off+1000, len(signal))
		if err := s.Send(signal[off:end]); err != nil {
			log.Fatal(err)
		}
	}
	hops, err := s.Close() // flushes: every callback has fired
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream closed after %d hops\n\n", hops)

	// The other request kind over the same connection.
	label, err := c.Classify(gen.Utterance("left", 9, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-shot: class %d (%s)\n", label, speechcmd.LabelName(label))

	// A batch is one-shots in flight at once: the client multiplexes them
	// on the one connection by request id.
	batch := [][]int16{gen.Utterance("up", 4, 0), gen.Utterance("down", 5, 0)}
	labels := make([]int, len(batch))
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, u := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels[i], errs[i] = c.Classify(u)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: classes %v\n", labels)
}
