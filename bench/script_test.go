package main

import "testing"

func TestSeedDeterminesScript(t *testing.T) {
	a, err := genCrowdScript(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genCrowdScript(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genCrowdScript(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash() != b.hash() {
		t.Error("the same seed gave two different crowd scripts")
	}
	if a.hash() == c.hash() {
		t.Error("different seeds gave the same crowd script")
	}
	// Binding to server-minted IDs must not change what the seed decided.
	ids := make([]string, len(a.videos))
	for i := range ids {
		ids[i] = "v" + string(rune('a'+i))
	}
	if err := a.bind("c1", ids); err != nil {
		t.Fatal(err)
	}
	if a.hash() != b.hash() {
		t.Error("binding changed the script hash")
	}

	d1 := genDeliveryScript(7, 6, 2, 70)
	d2 := genDeliveryScript(7, 6, 2, 70)
	d3 := genDeliveryScript(8, 6, 2, 70)
	if d1.hash() != d2.hash() {
		t.Error("the same seed gave two different delivery scripts")
	}
	if d1.hash() == d3.hash() {
		t.Error("different seeds gave the same delivery script")
	}
}

func TestDeliveryMix(t *testing.T) {
	sc := genDeliveryScript(3, 192, 1, 70000)
	var kinds [3]int
	perVideo := make([]int, 192)
	for _, g := range sc.gets {
		kinds[g.kind]++
		perVideo[g.video]++
	}
	n := float64(len(sc.gets))
	for kind, want := range []float64{0.70, 0.20, 0.10} {
		if got := float64(kinds[kind]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("kind %d is %.3f of the GETs, want %.2f", kind, got, want)
		}
	}
	// Zipf(1.0) over 192 videos: the most popular draws 1/H(192) = 17%.
	most := 0
	for _, c := range perVideo {
		most = max(most, c)
	}
	if got := float64(most) / n; got < 0.16 || got > 0.19 {
		t.Errorf("the most popular video draws %.3f of the GETs, want about 0.17", got)
	}
}
