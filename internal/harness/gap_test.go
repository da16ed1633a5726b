package harness

import (
	"fmt"
	"testing"
)

// TestFig6AAPGap is the scoreboard of the paper's headline in virtual
// time: AAP's makespan over AP's and over BSP's on Fig 6(b), (d), (e),
// (f) and (k) at 32 workers, printed and pinned to four digits, and each
// mode's total work (RunStats.TotalWork) and total busy seconds, the
// work pinned exactly. A ratio above 1 is a cell AAP loses. Panel (k) is
// taken at r = 1, 5 and 9; its r = 3 is panel (b). The simulator is
// exact, so any change that moves a schedule or a kernel's reported work
// moves a pin; such a change updates the pins and says why. Panel (d)'s
// pins are CC under the union-find kernel on every fragment.
func TestFig6AAPGap(t *testing.T) {
	if testing.Short() {
		t.Skip("about 30 s of virtual-time runs")
	}
	if Scale() != 1 {
		t.Skip("the pins are taken at scale 1")
	}
	const workers = 32
	panels := map[string]Fig6Workload{}
	for _, w := range Fig6Panels() {
		panels[w.Panel] = w
	}
	panel := func(name string) func() ([]Row, error) {
		w := panels[name]
		return func() ([]Row, error) { return runPanel(w, w.Dataset(Scale()), workers) }
	}
	skew := func(r float64) func() ([]Row, error) {
		return func() ([]Row, error) { return fig6kRows(FriendsterSim(Scale()), workers, r) }
	}
	for _, c := range []struct {
		cell            string
		rows            func() ([]Row, error)
		overAP, overBSP string
		work            [4]int64 // per mode, in Modes() order
	}{
		{"b", panel("b"), "1.0307", "0.9929", [4]int64{409253, 383601, 424565, 400711}},
		{"d", panel("d"), "1.0093", "0.9641", [4]int64{1031223, 1005843, 1063068, 1028018}},
		{"e", panel("e"), "1.0117", "0.4358", [4]int64{22048881, 14608141, 22772563, 14737368}},
		{"f", panel("f"), "0.9898", "0.4178", [4]int64{73853592, 38341399, 75242463, 38606876}},
		{"k/r=1", skew(1), "1.0609", "1.0094", [4]int64{494079, 429511, 511379, 469089}},
		{"k/r=5", skew(5), "1.0236", "0.9916", [4]int64{385503, 359015, 395032, 375674}},
		{"k/r=9", skew(9), "1.0134", "0.9925", [4]int64{330126, 323136, 337791, 330003}},
	} {
		t.Run(c.cell, func(t *testing.T) {
			t.Parallel()
			rows, err := c.rows()
			if err != nil {
				t.Fatal(err)
			}
			aap, bsp, ap := rows[0].Seconds, rows[1].Seconds, rows[2].Seconds // Modes() order
			overAP, overBSP := fmt.Sprintf("%.4f", aap/ap), fmt.Sprintf("%.4f", aap/bsp)
			t.Logf("6(%s): AAP %.4f  BSP %.4f  AP %.4f virtual s; AAP/AP %s  AAP/BSP %s", c.cell, aap, bsp, ap, overAP, overBSP)
			if overAP != c.overAP || overBSP != c.overBSP {
				t.Errorf("6(%s): AAP/AP %s, AAP/BSP %s; pinned %s, %s", c.cell, overAP, overBSP, c.overAP, c.overBSP)
			}
			for i, m := range Modes() {
				r := rows[i]
				t.Logf("6(%s) %s: work %d  busy %.4f virtual s", c.cell, m, r.Work, r.Busy)
				if r.Work != c.work[i] {
					t.Errorf("6(%s) %s: total work %d; pinned %d", c.cell, m, r.Work, c.work[i])
				}
			}
		})
	}
}
