// Package viz renders space-time schedules as text, in the style of the
// paper's Fig 1 grids: machines along the rows, time along the columns, one
// letter per job. It is wired into cmd/tetrisim (-gantt) and useful in tests
// and examples for eyeballing scheduler decisions.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tetrisched/internal/cluster"
	"tetrisched/internal/sim"
)

// glyphs label jobs in the grid, cycling for large job counts.
const glyphs = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// Options controls rendering.
type Options struct {
	// MaxCols caps the grid width (default 100). The grid spans time 0 to
	// the makespan, each column the fewest whole seconds that fit it.
	MaxCols int
	// MaxRows caps the number of node rows rendered (default: all).
	MaxRows int
}

// Render writes the schedule grid for a completed simulation.
func Render(w io.Writer, c *cluster.Cluster, res *sim.Result, opts Options) {
	to := max(res.Makespan, 1)
	maxCols := opts.MaxCols
	if maxCols <= 0 {
		maxCols = 100
	}
	step := (to + int64(maxCols) - 1) / int64(maxCols)
	cols := int((to + step - 1) / step)
	rows := c.N()
	if opts.MaxRows > 0 && rows > opts.MaxRows {
		rows = opts.MaxRows
	}

	// grid[node][col] = job glyph or '.'.
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	for i := range res.Stats {
		st := &res.Stats[i]
		if !st.Started && !st.Completed {
			continue
		}
		end := st.Finish
		if end == 0 || end < st.Start {
			end = to
		}
		g := glyphs[st.Job.ID%len(glyphs)]
		for _, n := range st.Nodes {
			if n >= rows {
				continue
			}
			for col := 0; col < cols; col++ {
				t0 := int64(col) * step
				t1 := t0 + step
				// Mark the cell if the job occupies any part of the column.
				if st.Start < t1 && end > t0 {
					grid[n][col] = g
				}
			}
		}
	}

	// Header: time axis.
	fmt.Fprintf(w, "%-10s t=0 … %d (each column = %ds)\n", "", to, step)
	for n := 0; n < rows; n++ {
		fmt.Fprintf(w, "%-10s %s\n", truncate(c.Node(cluster.NodeID(n)).Name, 10), grid[n])
	}

	// Legend: job → glyph, sorted by job ID.
	type entry struct {
		id    int
		label string
	}
	var legend []entry
	for i := range res.Stats {
		st := &res.Stats[i]
		if !st.Started && !st.Completed {
			continue
		}
		legend = append(legend, entry{
			id: st.Job.ID,
			label: fmt.Sprintf("%c=job%d(%s/%s,k=%d)",
				glyphs[st.Job.ID%len(glyphs)], st.Job.ID, st.Job.Class, st.Job.Type, st.Job.K),
		})
	}
	sort.Slice(legend, func(a, b int) bool { return legend[a].id < legend[b].id })
	if len(legend) > 0 {
		fmt.Fprint(w, "legend: ")
		for i, e := range legend {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			if i > 0 && i%4 == 0 {
				fmt.Fprint(w, "\n        ")
			}
			fmt.Fprint(w, e.label)
		}
		fmt.Fprintln(w)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
