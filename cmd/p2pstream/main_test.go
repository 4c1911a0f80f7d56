package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/node"
)

// End to end over real UDP loopback: a two-node ring, a 1 MiB object
// put from a file, streamed back with cat, byte-compared — the same
// sequence the CI smoke job runs against separate processes.
func TestPutCatRoundTripAgainstLiveNodes(t *testing.T) {
	space := id.NewSpace(16)
	var nodes []*node.Node
	for i, nid := range []uint64{100, 40000} {
		n, err := node.Start(node.Config{
			Space:          space,
			ID:             id.ID(nid),
			Addr:           "127.0.0.1:0",
			StabilizeEvery: 50 * time.Millisecond,
			RPCTimeout:     250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	base := []string{"-node", nodes[0].Addr(), "-bits", "16"}

	value := make([]byte, 1<<20)
	rand.New(rand.NewSource(77)).Read(value)
	in := filepath.Join(t.TempDir(), "object.bin")
	if err := os.WriteFile(in, value, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, msg strings.Builder
	if err := run(append(base, "put", "movie", in), &out, &msg); err != nil {
		t.Fatalf("put: %v (%s)", err, msg.String())
	}
	if !strings.Contains(msg.String(), "256 chunks") {
		t.Fatalf("put progress %q", msg.String())
	}

	var streamed bytes.Buffer
	msg.Reset()
	if err := run(append(base, "cat", "movie"), &streamed, &msg); err != nil {
		t.Fatalf("cat: %v (%s)", err, msg.String())
	}
	if !bytes.Equal(streamed.Bytes(), value) {
		t.Fatalf("cat returned %d bytes, differs from input", streamed.Len())
	}
	if !strings.Contains(msg.String(), "ttfb") {
		t.Fatalf("cat progress %q", msg.String())
	}

	out.Reset()
	msg.Reset()
	if err := run(append(base, "stat", "movie"), &out, &msg); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if !strings.Contains(out.String(), "1048576 bytes, 256 chunks") {
		t.Fatalf("stat output %q", out.String())
	}

	// cat of a key that holds no manifest fails cleanly.
	if err := run(append(base, "cat", "no-such-object"), &streamed, &msg); err == nil {
		t.Fatal("cat of missing object succeeded")
	}
}

func TestArgumentErrors(t *testing.T) {
	var out, msg strings.Builder
	if err := run([]string{"put", "k"}, &out, &msg); err == nil {
		t.Fatal("missing -node accepted")
	}
	if err := run([]string{"-node", "127.0.0.1:1", "frob", "k"}, &out, &msg); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"-node", "127.0.0.1:1", "-bits", "16", "-raw", "cat", "99999"}, &out, &msg); err == nil {
		t.Fatal("out-of-space raw key accepted")
	}
	if err := run([]string{"-node", "127.0.0.1:1", "put", "k", "a", "b"}, &out, &msg); err == nil {
		t.Fatal("put with extra args accepted")
	}
}
