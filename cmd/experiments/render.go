package main

import (
	"fmt"
	"math"
	"strings"
)

// block is one generated block of EXPERIMENTS.md, marked there by an
// "<!-- experiments:NAME -->" line: a markdown table of one entry's cells.
// It has one line per row, or per mode when byMode is set, and for each
// group (a mode, or a row when byMode) one column per col. A column no
// line has a cell in is left out.
type block struct {
	name, first   string // the block's name; the label column's header
	byMode        bool
	lines, groups []string
	cols          []col
}

// col is a column of every group: its header, where "%s" stands for the
// group, and the metric it shows, as "med" (median and IQR), "median",
// "rate" (the share of runs with the event), or as a median's ratio to
// native's in the same row: "over" for a time, "tput" for a throughput.
type col struct{ head, metric, as string }

// table renders the block from the cells of registry entry t.
func (b block) table(t string, cells map[[4]string]Cell) []string {
	show := func(c col, line, group string) (text string, ok bool) {
		row, mode := line, group
		if b.byMode {
			row, mode = group, line
		}
		x, ok := cells[[4]string{t, row, mode, c.metric}]
		base, okBase := cells[[4]string{t, row, "native", c.metric}]
		switch {
		case !ok:
			return "—", false
		case c.as == "med":
			return num(x.Median) + " (" + num(x.IQR) + ")", true
		case c.as == "median":
			return num(x.Median), true
		case c.as == "rate":
			return fmt.Sprintf("%.1f%%", x.Mean), true
		case !okBase || x.Median == 0 || base.Median == 0:
			return "—", true
		case c.as == "tput":
			return fmt.Sprintf("%.1f×", base.Median/x.Median), true
		default:
			return fmt.Sprintf("%.1f×", x.Median/base.Median), true
		}
	}
	var groups []string // the group of each kept column
	var cols []col
	head := []string{b.first}
	for _, g := range b.groups {
		for _, c := range b.cols {
			for _, l := range b.lines {
				if _, ok := show(c, l, g); ok {
					groups, cols = append(groups, g), append(cols, c)
					head = append(head, strings.ReplaceAll(c.head, "%s", g))
					break
				}
			}
		}
	}
	row := func(cells []string) string { return "| " + strings.Join(cells, " | ") + " |" }
	out := []string{row(head), strings.Repeat("|---", len(head)) + "|"}
	for _, l := range b.lines {
		line := []string{l}
		for i, c := range cols {
			text, _ := show(c, l, groups[i])
			line = append(line, text)
		}
		out = append(out, row(line))
	}
	return out
}

func num(x float64) string {
	switch a := math.Abs(x); {
	case a >= 100 || a == math.Trunc(a):
		return fmt.Sprintf("%.0f", x)
	case a >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// markdown renders the artifact as EXPERIMENTS.md embeds it: the host
// line, then every block of each entry the artifact holds cells of, in
// registry order, each under its marker line.
func markdown(a *Artifact) string {
	cells, tables := map[[4]string]Cell{}, map[string]bool{}
	for _, c := range a.Cells {
		cells[[4]string{c.Table, c.Row, c.Mode, c.Metric}] = c
		tables[c.Table] = true
	}
	var sb strings.Builder
	emit := func(name string, lines []string) {
		fmt.Fprintf(&sb, "<!-- experiments:%s -->\n%s\n\n", name, strings.Join(lines, "\n"))
	}
	emit("host", []string{fmt.Sprintf("Host: nproc %d, GOMAXPROCS %d, %s; commit %s, seed %d, %s.",
		a.NProc, a.GOMAXPROCS, a.Go, a.Commit, a.Seed, a.Date)})
	for _, e := range registry {
		for _, b := range e.blocks {
			if tables[e.name] {
				emit(b.name, b.table(e.name, cells))
			}
		}
	}
	return sb.String()
}
