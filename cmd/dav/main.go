// Command dav is a command-line WebDAV client for browsing and
// manipulating a repository — the "web and DAV browsers become
// debugging tools" workflow the paper describes.
//
// Usage:
//
//	dav -url http://host:8080 [-user u -pass p] <command> [args]
//
// Commands:
//
//	ls PATH                 list a collection with sizes and types
//	get PATH [FILE]         fetch a document (to stdout or FILE)
//	put FILE PATH           upload a document
//	mkcol PATH              create a collection
//	rm PATH                 delete a resource (recursive)
//	cp SRC DST              server-side copy (Depth: infinity)
//	mv SRC DST              server-side move
//	props PATH              print all properties
//	propset PATH NS LOCAL VALUE   set a text property
//	proprm PATH NS LOCAL    remove a property
//	find PATH NS LOCAL      list resources carrying a property (server-side SEARCH)
//	search PATH NS LOCAL OP VALUE  DASL query (op: eq|lt|gt|lte|gte|like)
//	vc PATH                 put a document under version control
//	versions PATH           list a document's version history
//	lock PATH               acquire an exclusive lock, print the token
//	unlock PATH TOKEN       release a lock
package main

import (
	"encoding/xml"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/davclient"
	"repro/internal/davproto"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dav -url URL [-user U -pass P] <ls|get|put|mkcol|rm|cp|mv|props|propset|proprm|find|search|vc|versions|lock|unlock> args...")
	os.Exit(2)
}

func main() {
	var (
		url  = flag.String("url", "", "server base URL (required)")
		user = flag.String("user", "", "basic-auth user")
		pass = flag.String("pass", "", "basic-auth password")
	)
	flag.Usage = usage
	flag.Parse()
	if *url == "" || flag.NArg() == 0 {
		usage()
	}
	c, err := davclient.New(davclient.Config{
		BaseURL: *url, Username: *user, Password: *pass,
		Persistent: true, Timeout: 5 * time.Minute,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	args := flag.Args()
	cmd, args := args[0], args[1:]
	if err := run(c, cmd, args); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dav:", err)
	os.Exit(1)
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
	}
}

func run(c *davclient.Client, cmd string, args []string) error {
	switch cmd {
	case "ls":
		need(args, 1)
		return ls(c, args[0])
	case "get":
		if len(args) != 1 && len(args) != 2 {
			usage()
		}
		out := io.Writer(os.Stdout)
		if len(args) == 2 {
			f, err := os.Create(args[1])
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		_, err := c.GetTo(args[0], out)
		return err
	case "put":
		need(args, 2)
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		created, err := c.Put(args[1], f, "")
		if err != nil {
			return err
		}
		if created {
			fmt.Println("created", args[1])
		} else {
			fmt.Println("replaced", args[1])
		}
		return nil
	case "mkcol":
		need(args, 1)
		return c.Mkcol(args[0])
	case "rm":
		need(args, 1)
		return c.Delete(args[0])
	case "cp":
		need(args, 2)
		return c.Copy(args[0], args[1], davproto.DepthInfinity, false)
	case "mv":
		need(args, 2)
		return c.Move(args[0], args[1], false)
	case "props":
		need(args, 1)
		return props(c, args[0])
	case "propset":
		need(args, 4)
		return c.SetProps(args[0], davproto.NewTextProperty(args[1], args[2], args[3]))
	case "proprm":
		need(args, 3)
		return c.RemoveProps(args[0], xml.Name{Space: args[1], Local: args[2]})
	case "find":
		need(args, 3)
		return find(c, args[0], xml.Name{Space: args[1], Local: args[2]})
	case "search":
		need(args, 5)
		return search(c, args[0], xml.Name{Space: args[1], Local: args[2]}, args[3], args[4])
	case "vc":
		need(args, 1)
		return c.VersionControl(args[0])
	case "versions":
		need(args, 1)
		versions, err := c.VersionTree(args[0])
		if err != nil {
			return err
		}
		for _, v := range versions {
			fmt.Printf("v%-4s %8d bytes  %s\n", v.Name, v.Size, v.Href)
		}
		return nil
	case "lock":
		need(args, 1)
		al, err := c.Lock(args[0], davproto.LockExclusive, davproto.Depth0, "dav-cli", 10*time.Minute)
		if err != nil {
			return err
		}
		fmt.Println(al.Token)
		return nil
	case "unlock":
		need(args, 2)
		return c.Unlock(args[0], args[1])
	default:
		usage()
		return nil
	}
}

func ls(c *davclient.Client, p string) error {
	ms, err := c.PropFindSelected(p, davproto.Depth1,
		davproto.PropResourceType, davproto.PropGetContentLength, davproto.PropGetLastModified)
	if err != nil {
		return err
	}
	for _, r := range ms.Responses {
		props := davproto.PropsByName(r.Propstats)
		kind := "file"
		if rt, ok := props[davproto.PropResourceType]; ok && rt.Node().Find(davproto.NS, "collection") != nil {
			kind = "dir "
		}
		size := "-"
		if cl, ok := props[davproto.PropGetContentLength]; ok {
			size = cl.Text()
		}
		modified := ""
		if lm, ok := props[davproto.PropGetLastModified]; ok {
			modified = lm.Text()
		}
		fmt.Printf("%s  %10s  %-29s  %s\n", kind, size, modified, c.PathOf(r.Href))
	}
	return nil
}

func props(c *davclient.Client, p string) error {
	ms, err := c.PropFindAll(p, davproto.Depth0)
	if err != nil {
		return err
	}
	if len(ms.Responses) == 0 {
		return fmt.Errorf("no response for %s", p)
	}
	for name, prop := range davproto.PropsByName(ms.Responses[0].Propstats) {
		text := prop.Text()
		if len(text) > 100 {
			text = text[:100] + "..."
		}
		fmt.Printf("{%s}%s = %s\n", name.Space, name.Local, text)
	}
	return nil
}

func search(c *davclient.Client, root string, name xml.Name, op, value string) error {
	ms, err := c.Search(davproto.BasicSearch{
		Select: []xml.Name{name},
		Scope:  root,
		Depth:  davproto.DepthInfinity,
		Where:  davproto.CompareExpr{Op: davproto.SearchOp(op), Prop: name, Literal: value},
	})
	if err != nil {
		return err
	}
	for _, r := range ms.Responses {
		if prop, ok := davproto.PropsByName(r.Propstats)[name]; ok {
			fmt.Printf("%s\t%s\n", c.PathOf(r.Href), prop.Text())
		} else {
			fmt.Println(c.PathOf(r.Href))
		}
	}
	return nil
}

func find(c *davclient.Client, root string, name xml.Name) error {
	ms, err := c.PropFindSelected(root, davproto.DepthInfinity, name)
	if err != nil {
		return err
	}
	for _, r := range ms.Responses {
		if prop, ok := davproto.PropsByName(r.Propstats)[name]; ok {
			fmt.Printf("%s\t%s\n", c.PathOf(r.Href), prop.Text())
		}
	}
	return nil
}
