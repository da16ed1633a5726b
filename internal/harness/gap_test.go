package harness

import (
	"fmt"
	"testing"
)

// TestFig6AAPGap is the scoreboard of the paper's headline in virtual
// time: AAP's makespan over AP's and over BSP's on Fig 6(b), (d), (e),
// (f) and (k) at 32 workers, printed and pinned to four digits. A ratio
// above 1 is a cell AAP loses. Panel (k) is taken at r = 1, 5 and 9; its
// r = 3 is panel (b). The simulator is exact, so any change that moves a
// schedule or a kernel's reported work moves a pin; such a change
// updates the pins and says why.
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
	}{
		{"b", panel("b"), "1.0307", "0.9929"},
		{"d", panel("d"), "1.0000", "0.9769"},
		{"e", panel("e"), "1.0117", "0.4358"},
		{"f", panel("f"), "0.9952", "0.4095"},
		{"k/r=1", skew(1), "1.0609", "1.0094"},
		{"k/r=5", skew(5), "1.0236", "0.9916"},
		{"k/r=9", skew(9), "1.0134", "0.9925"},
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
		})
	}
}
