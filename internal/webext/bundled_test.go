package webext

import (
	"context"
	"net/http"
	"testing"

	"revelio/internal/attest"
	"revelio/internal/browser"
	"revelio/internal/kds"
	"revelio/internal/netlab"
)

// TestFreshDeviceTwoChipsOneKDSRequest: the nodes bundle their chip's
// VCEK with every well-known bundle, so a device with empty caches pays
// one KDS request on its first navigation, the ASK/ARK chain, and none
// when a later navigation lands on the fleet's other chip.
func TestFreshDeviceTwoChipsOneKDSRequest(t *testing.T) {
	d := newDeployment(t, 2)
	if d.Nodes[0].Chip == d.Nodes[1].Chip {
		t.Fatal("the two nodes share a chip")
	}
	tr := &netlab.Transport{Inner: &http.Transport{}}
	t.Cleanup(tr.CloseIdleConnections)
	kc := kds.NewClient(d.KDSURL(), &http.Client{Transport: tr})
	kc.SetCaching(true)
	device := attest.NewVerifier(kc, attest.NewStaticGolden(d.Golden))

	for i := range d.Nodes {
		// A new browser session per navigation, on the one device.
		b := browser.New(d.CARootPool(), 0)
		b.Resolve(domain, d.Nodes[i].WebAddr())
		ext := New(b, device)
		ext.RegisterSite(domain, d.Golden)
		_, m, err := ext.Navigate(context.Background(), domain, "/")
		if err != nil {
			t.Fatalf("navigation to node %d: %v", i, err)
		}
		if !m.Attested {
			t.Fatalf("navigation to node %d did not attest", i)
		}
		if n := tr.Requests(); n != 1 {
			t.Errorf("after navigating to node %d the device made %d KDS requests, want 1", i, n)
		}
	}
}
