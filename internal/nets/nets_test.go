package nets

import (
	"strings"
	"testing"
)

func TestAllNetworksValidate(t *testing.T) {
	for _, n := range All() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestLayerCounts(t *testing.T) {
	cases := map[string]int{
		"vgg16":      13,
		"resnet50":   53, // 1 stem + 16 blocks x 3 + 4 projections
		"squeezenet": 26, // conv1 + 8 fires x 3 + conv10
		"yolov2":     23,
	}
	for name, want := range cases {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got := len(n.Layers); got != want {
			t.Errorf("%s: %d layers, want %d", name, got, want)
		}
	}
}

func TestVGG16Shapes(t *testing.T) {
	n := vgg16()
	first := n.Layers[0]
	if first.InH != 224 || first.InC != 3 || first.OutC != 64 {
		t.Errorf("conv1_1 shape wrong: %+v", first)
	}
	last := n.Layers[len(n.Layers)-1]
	if last.Name != "conv5_3" || last.InH != 14 || last.OutC != 512 {
		t.Errorf("conv5_3 shape wrong: %+v", last)
	}
	// All VGG convs preserve spatial dims (stride 1, same padding).
	for _, l := range n.Layers {
		if l.OutH() != l.InH || l.OutW() != l.InW {
			t.Errorf("%s: output %dx%d differs from input %dx%d", l.Name, l.OutH(), l.OutW(), l.InH, l.InW)
		}
	}
}

func TestResNet50Structure(t *testing.T) {
	n := resNet50()
	stem := n.Layers[0]
	if stem.KerH != 7 || stem.StrideH != 2 || stem.OutH() != 112 {
		t.Errorf("stem conv wrong: %+v out=%d", stem, stem.OutH())
	}
	// The paper's example layer conv_3_1_1 must exist: 1x1, entering
	// stage 3 at 56x56 with 256 channels.
	l, err := n.Layer("conv_3_1_1")
	if err != nil {
		t.Fatal(err)
	}
	if l.KerH != 1 || l.InH != 56 || l.InC != 256 || l.OutC != 128 {
		t.Errorf("conv_3_1_1 shape wrong: %+v", l)
	}
	// Transition 3x3 convs downsample.
	l2, err := n.Layer("conv_3_1_2")
	if err != nil {
		t.Fatal(err)
	}
	if l2.StrideH != 2 || l2.OutH() != 28 {
		t.Errorf("conv_3_1_2 must downsample to 28: %+v out=%d", l2, l2.OutH())
	}
	// Projections exist exactly at block 1 of each stage.
	projs := 0
	for _, l := range n.Layers {
		if strings.HasSuffix(l.Name, "_proj") {
			projs++
		}
	}
	if projs != 4 {
		t.Errorf("%d projection convs, want 4", projs)
	}
}

func TestSqueezeNetFireModules(t *testing.T) {
	n := squeezeNet()
	sq, err := n.Layer("fire5_squeeze")
	if err != nil {
		t.Fatal(err)
	}
	if sq.InC != 256 || sq.OutC != 32 || sq.KerH != 1 || sq.InH != 27 {
		t.Errorf("fire5_squeeze shape wrong: %+v", sq)
	}
	e3, err := n.Layer("fire9_expand3x3")
	if err != nil {
		t.Fatal(err)
	}
	if e3.InC != 64 || e3.OutC != 256 || e3.KerH != 3 || e3.InH != 13 {
		t.Errorf("fire9_expand3x3 shape wrong: %+v", e3)
	}
}

func TestYOLOv2Backbone(t *testing.T) {
	n := yoloV2()
	if n.Layers[0].InH != 416 {
		t.Errorf("yolo input %d, want 416", n.Layers[0].InH)
	}
	l, err := n.Layer("conv22")
	if err != nil {
		t.Fatal(err)
	}
	if l.InC != 1280 {
		t.Errorf("conv22 input channels %d, want 1280 (concat)", l.InC)
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("lenet")
	const want = `nets: unknown network "lenet" (want one of [resnet50 squeezenet vgg16 yolov2])`
	if err == nil || err.Error() != want {
		t.Fatalf("ByName(lenet) error = %v, want %s", err, want)
	}
}

// TestTableNames checks the name each constructor is listed under
// against the name of the network it builds, in All's order.
func TestTableNames(t *testing.T) {
	for i, n := range All() {
		if table[i].name != n.Name {
			t.Errorf("table[%d] is listed as %q but builds %q", i, table[i].name, n.Name)
		}
		if got, err := ByName(n.Name); err != nil || got.Name != n.Name || len(got.Layers) != len(n.Layers) {
			t.Errorf("ByName(%q) = %q with %d layers, %v", n.Name, got.Name, len(got.Layers), err)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() unsorted: %v", names)
		}
	}
}

func TestScale(t *testing.T) {
	n := vgg16().Scale(4)
	if n.Name != "vgg16/4" {
		t.Errorf("scaled name = %q", n.Name)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Layers[0].InH != 56 {
		t.Errorf("conv1_1 scaled to %d, want 56", n.Layers[0].InH)
	}
	// Channels unchanged.
	if n.Layers[0].InC != 3 || n.Layers[0].OutC != 64 {
		t.Errorf("channels changed by scaling: %+v", n.Layers[0])
	}
	// Spatial dims never drop below the kernel.
	deep := vgg16().Scale(1000)
	if err := deep.Validate(); err != nil {
		t.Fatalf("extreme scaling broke validity: %v", err)
	}
	// Scale(1) is the identity.
	same := vgg16().Scale(1)
	if same.Name != "vgg16" || same.Layers[0].InH != 224 {
		t.Errorf("Scale(1) changed network: %+v", same.Layers[0])
	}
}

func TestScaledNetworksValidate(t *testing.T) {
	for _, n := range All() {
		for _, div := range []int{2, 4, 8} {
			s := n.Scale(div)
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", s.Name, err)
			}
		}
	}
}

func TestLayerLookupError(t *testing.T) {
	if _, err := vgg16().Layer("nope"); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	n := vgg16()
	n.Layers = append(n.Layers, n.Layers[0])
	if err := n.Validate(); err == nil {
		t.Fatal("duplicate layer name accepted")
	}
	empty := Network{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty network accepted")
	}
}
