// Command p2pstream moves large values through a running overlay via
// the chunk layer (internal/chunk): put splits stdin or a file into
// wire-sized chunks scattered across the ring under derived keys plus a
// checksummed manifest under the root key; cat streams the object back
// to stdout with lookahead prefetch, printing progress and transfer
// stats to stderr.
//
//	p2pstream -node 127.0.0.1:7000 put movie < movie.bin
//	p2pstream -node 127.0.0.1:7000 put movie movie.bin
//	p2pstream -node 127.0.0.1:7000 cat movie > copy.bin
//	p2pstream -node 127.0.0.1:7000 stat movie
//
// Like p2pkv the client never joins the ring: every chunk is an
// ordinary put/get from an anonymous endpoint. Keys are hashed into the
// ring's identifier space (-bits must match the nodes'); -raw treats
// the key argument as a decimal ring id.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/id"
	"peercache/internal/node"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "p2pstream: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, msg io.Writer) error {
	fs := flag.NewFlagSet("p2pstream", flag.ContinueOnError)
	fs.SetOutput(msg)
	var (
		nodeAddr  = fs.String("node", "", "address of any overlay member (required)")
		bits      = fs.Uint("bits", 32, "identifier length in bits; must match the ring's")
		raw       = fs.Bool("raw", false, "treat <key> as a decimal ring id instead of hashing it")
		timeout   = fs.Duration("timeout", 500*time.Millisecond, "per-attempt RPC timeout")
		retries   = fs.Int("retries", 2, "RPC retries after a timeout")
		chunkSize = fs.Int("chunk-size", chunk.DefaultChunkSize, "chunk width in bytes (put only; capped at the wire value limit)")
		window    = fs.Int("window", 8, "parallel chunk transfers")
		prefetch  = fs.Int("prefetch", 2, "cat lookahead depth; 0 reads strictly on demand")
		quiet     = fs.Bool("q", false, "suppress progress output")
	)
	fs.Usage = func() {
		fmt.Fprintf(msg, "usage: p2pstream -node <addr> [flags] put <key> [file]\n")
		fmt.Fprintf(msg, "       p2pstream -node <addr> [flags] cat <key>\n")
		fmt.Fprintf(msg, "       p2pstream -node <addr> [flags] stat <key>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodeAddr == "" {
		return fmt.Errorf("-node is required")
	}
	if fs.NArg() < 2 {
		fs.Usage()
		return fmt.Errorf("missing command or key")
	}
	space := id.NewSpace(*bits)
	cmd, keyArg := fs.Arg(0), fs.Arg(1)
	key, err := parseKey(space, keyArg, *raw)
	if err != nil {
		return err
	}
	progress := msg
	if *quiet {
		progress = io.Discard
	}

	client, err := node.Dial(*nodeAddr, node.Config{
		Space:      space,
		RPCTimeout: *timeout,
		RPCRetries: *retries,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	// Chunks are ordinary puts and any-copy reads; a copy that fails its
	// digest is re-read from the key's owner.
	store, err := chunk.New(chunk.FuncKV{
		PutFunc: func(key id.ID, value []byte) error {
			_, err := client.Put(key, value)
			return err
		},
		GetFunc: func(key id.ID) ([]byte, int, error) {
			res, err := client.FindValue(key)
			return res.Value, res.Hops, err
		},
	}, chunk.Options{Space: space, ChunkSize: *chunkSize, Window: *window, Prefetch: *prefetch,
		StrongGet: func(key id.ID) ([]byte, int, error) {
			res, err := client.Get(key)
			return res.Value, res.Hops, err
		}})
	if err != nil {
		return err
	}

	switch cmd {
	case "put":
		var in io.Reader = os.Stdin
		if fs.NArg() == 3 {
			f, err := os.Open(fs.Arg(2))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		} else if fs.NArg() != 2 {
			return fmt.Errorf("put needs <key> [file]")
		}
		value, err := io.ReadAll(in)
		if err != nil {
			return fmt.Errorf("reading input: %w", err)
		}
		start := time.Now()
		m, err := store.PutObject(key, value)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(progress, "stored %q (id %d): %d bytes in %d chunks of %d, %.2f MB/s\n",
			keyArg, key, m.TotalLen, m.Chunks(), m.ChunkSize, mbps(int64(m.TotalLen), elapsed))
	case "cat":
		r, err := store.NewReader(key)
		if err != nil {
			return err
		}
		defer r.Close()
		start := time.Now()
		n, err := io.Copy(out, r)
		if err != nil {
			return fmt.Errorf("after %d bytes: %w", n, err)
		}
		st := r.Stats()
		fmt.Fprintf(progress, "read %q (id %d): %d bytes in %d chunks, ttfb %v, %.2f MB/s, waited on %d/%d chunks\n",
			keyArg, key, st.BytesRead, st.Chunks, st.TTFB.Round(time.Microsecond),
			mbps(st.BytesRead, time.Since(start)), st.WaitChunks, st.Chunks)
	case "stat":
		r, err := store.NewReader(key)
		if err != nil {
			return err
		}
		defer r.Close()
		m := r.Manifest()
		fmt.Fprintf(out, "key %q (id %d): %d bytes, %d chunks of %d (manifest v%d)\n",
			keyArg, key, m.TotalLen, m.Chunks(), m.ChunkSize, chunk.ManifestVersion)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / d.Seconds()
}

// parseKey maps the key argument into the ring: hashed by default, a
// bounds-checked decimal id with -raw.
func parseKey(space id.Space, arg string, raw bool) (id.ID, error) {
	if !raw {
		return space.HashString(arg), nil
	}
	v, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("raw key %q: %w", arg, err)
	}
	if v >= space.Size() {
		return 0, fmt.Errorf("raw key %d outside the %d-bit space", v, space.Bits())
	}
	return id.ID(v), nil
}
