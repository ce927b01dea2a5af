// dsmfc is the compiler driver: it compiles Fortran-subset sources with the
// paper's data-distribution directives into object files (with §5 shadow
// sections), or — with -o — pre-links and links them into an executable
// image for dsmrun.
//
// Usage:
//
//	dsmfc -c file.f ...            compile each source to file.o
//	dsmfc -o prog.img file.f ...   compile and link sources (and/or .o files)
//	dsmfc -O0|-O1|-O2|-O3          reshape optimization level (§7); default -O3
//	dsmfc -nocheck                 disable the §6 runtime argument checks
//	dsmfc -S                       also print the transformed IR of each unit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsmdist/internal/bytecode"
	"dsmdist/internal/codegen"
	"dsmdist/internal/core"
	"dsmdist/internal/ir"
	"dsmdist/internal/link"
	"dsmdist/internal/obj"
	"dsmdist/internal/xform"
)

func main() {
	compileOnly := flag.Bool("c", false, "compile to object files only")
	out := flag.String("o", "", "link into an executable image file")
	o0 := flag.Bool("O0", false, "no reshape optimizations")
	o1 := flag.Bool("O1", false, "tile and peel")
	o2 := flag.Bool("O2", false, "tile, peel, hoist")
	o3 := flag.Bool("O3", true, "all optimizations (default)")
	noCheck := flag.Bool("nocheck", false, "disable runtime argument checks")
	dumpIR := flag.Bool("S", false, "print transformed IR")
	dumpAsm := flag.Bool("dis", false, "print disassembled bytecode")
	flag.Parse()

	opt := xform.O3()
	switch {
	case *o0:
		opt = xform.O0()
	case *o1:
		opt = xform.O1()
	case *o2:
		opt = xform.O2()
	case *o3:
		opt = xform.O3()
	}
	tc := core.NewAt(opt)
	tc.RuntimeChecks = !*noCheck

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dsmfc: no input files")
		os.Exit(2)
	}

	var objs []*obj.Object
	for _, arg := range flag.Args() {
		switch {
		case strings.HasSuffix(arg, ".o"):
			data, err := os.ReadFile(arg)
			die(err)
			o, err := obj.Decode(data)
			die(err)
			objs = append(objs, o)
		default:
			src, err := os.ReadFile(arg)
			die(err)
			o, err := tc.Compile(arg, string(src))
			die(err)
			objs = append(objs, o)
			if *compileOnly {
				data, err := o.Encode()
				die(err)
				oname := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg)) + ".o"
				die(os.WriteFile(oname, data, 0o644))
				fmt.Printf("dsmfc: wrote %s (%d bytes, %d units, %d shadow entries)\n",
					oname, len(data), len(o.Units), len(o.Shadow))
			}
		}
	}
	if *compileOnly {
		return
	}

	img, err := tc.Link(objs...)
	die(err)
	if *dumpIR {
		for _, u := range img.Instances {
			fmt.Printf("==== unit %s ====\n%s\n", u.Name, ir.StmtsString(u.Body))
		}
	}
	for name, n := range img.Clones {
		if n > 1 {
			fmt.Printf("dsmfc: cloned %s into %d instances (distinct reshaped signatures)\n", name, n)
		}
	}
	if *dumpAsm {
		fmt.Print(bytecode.DisasmProgram(img.Res.Prog))
	}
	if *out != "" {
		die(writeImage(*out, img))
		fmt.Printf("dsmfc: wrote %s (%d functions, %d arrays)\n",
			*out, len(img.Res.Prog.Fns), len(img.Res.Arrays))
	}
}

// writeImage serializes a linked image.
func writeImage(path string, img *link.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return codegen.EncodeImage(f, img.Res)
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmfc: %v\n", err)
		os.Exit(1)
	}
}
