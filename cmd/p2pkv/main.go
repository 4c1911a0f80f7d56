// Command p2pkv puts and gets items against a running overlay, without
// joining it: the client resolves the key's owner through any ring
// member and talks to the owner directly, from an anonymous UDP
// endpoint (node.Client).
//
//	p2pkv -node 127.0.0.1:7000 put greeting "hello world"
//	p2pkv -node 127.0.0.1:7000 get greeting
//	p2pkv -node 127.0.0.1:7000 resolve greeting
//
// Keys are hashed into the ring's identifier space (-bits must match
// the nodes'); -raw instead treats the key argument as a decimal ring
// id, which is how the cluster tests and simulators name items.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"peercache/internal/id"
	"peercache/internal/node"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "p2pkv: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("p2pkv", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		nodeAddr = fs.String("node", "", "address of any overlay member (required)")
		bits     = fs.Uint("bits", 32, "identifier length in bits; must match the ring's")
		raw      = fs.Bool("raw", false, "treat <key> as a decimal ring id instead of hashing it")
		timeout  = fs.Duration("timeout", 500*time.Millisecond, "per-attempt RPC timeout")
		retries  = fs.Int("retries", 2, "RPC retries after a timeout")
		ownerRd  = fs.Bool("owner-read", false, "get only from the key's owner; by default any replica may answer (bounded staleness: at worst one anti-entropy round behind)")
	)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: p2pkv -node <addr> [flags] put <key> <value>\n")
		fmt.Fprintf(out, "       p2pkv -node <addr> [flags] get <key>\n")
		fmt.Fprintf(out, "       p2pkv -node <addr> [flags] resolve <key>\n")
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

	client, err := node.Dial(*nodeAddr, node.Config{
		Space:      space,
		RPCTimeout: *timeout,
		RPCRetries: *retries,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	switch cmd {
	case "put":
		if fs.NArg() != 3 {
			return fmt.Errorf("put needs <key> <value>")
		}
		res, err := client.Put(key, []byte(fs.Arg(2)))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stored %q (id %d) at node %d (%s), version %d\n",
			keyArg, key, res.Owner.ID, res.Owner.Addr, res.Version)
	case "get":
		read := client.FindValue
		if *ownerRd {
			read = client.Get
		}
		res, err := read(key)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", res.Value)
		fmt.Fprintf(out, "# id %d, version %d\n", key, res.Version)
	case "resolve":
		owner, hops, err := client.Resolve(key)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "key %q (id %d) is owned by node %d (%s), resolved in %d hops\n",
			keyArg, key, owner.ID, owner.Addr, hops)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
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
