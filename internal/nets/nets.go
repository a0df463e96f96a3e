// Package nets provides the convolution-layer tables of the four
// networks the paper evaluates: VGGNet-16, ResNet-50, SqueezeNet (v1.1)
// and YOLOv2 (Darknet-19 backbone with detection head). Only
// convolution layers are listed — they dominate both compute and
// traffic, and they are what the scheduler operates on; pooling and
// element-wise layers only determine the spatial dimensions between
// convs, which the tables already reflect.
package nets

import (
	"fmt"
	"sort"

	"github.com/flexer-sched/flexer/internal/layer"
)

// Network is a named sequence of convolution layers.
type Network struct {
	Name   string
	Layers []layer.Conv
}

// Scale returns a copy of the network with all spatial dimensions
// divided by div (never below the kernel extent). Channel counts are
// unchanged, so compute-to-traffic ratios and stationary trade-offs
// keep their structure at a fraction of the schedule-search cost; the
// benchmark harness uses scaled networks by default.
func (n Network) Scale(div int) Network {
	if div <= 1 {
		return n
	}
	out := Network{Name: fmt.Sprintf("%s/%d", n.Name, div), Layers: make([]layer.Conv, len(n.Layers))}
	for i, l := range n.Layers {
		l.InH = scaleDim(l.InH, div, l.KerH)
		l.InW = scaleDim(l.InW, div, l.KerW)
		out.Layers[i] = l
	}
	return out
}

func scaleDim(v, div, min int) int {
	v /= div
	if v < min {
		v = min
	}
	return v
}

// Layer returns the layer with the given name.
func (n Network) Layer(name string) (layer.Conv, error) {
	for _, l := range n.Layers {
		if l.Name == name {
			return l, nil
		}
	}
	return layer.Conv{}, fmt.Errorf("nets: network %s has no layer %q", n.Name, name)
}

// Validate checks every layer of the network.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nets: network %s has no layers", n.Name)
	}
	seen := make(map[string]bool, len(n.Layers))
	for _, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("nets: network %s: %w", n.Name, err)
		}
		if seen[l.Name] {
			return fmt.Errorf("nets: network %s: duplicate layer %q", n.Name, l.Name)
		}
		seen[l.Name] = true
	}
	return nil
}

// conv is a table-building helper: 3x3 (or kxk) convolution with
// stride 1 and same padding.
func conv(name string, in, inC, outC, ker int) layer.Conv {
	return layer.NewConv(name, in, in, inC, outC, ker)
}

// vgg16 returns the 13 convolution layers of VGGNet-16.
func vgg16() Network {
	return Network{Name: "vgg16", Layers: []layer.Conv{
		conv("conv1_1", 224, 3, 64, 3),
		conv("conv1_2", 224, 64, 64, 3),
		conv("conv2_1", 112, 64, 128, 3),
		conv("conv2_2", 112, 128, 128, 3),
		conv("conv3_1", 56, 128, 256, 3),
		conv("conv3_2", 56, 256, 256, 3),
		conv("conv3_3", 56, 256, 256, 3),
		conv("conv4_1", 28, 256, 512, 3),
		conv("conv4_2", 28, 512, 512, 3),
		conv("conv4_3", 28, 512, 512, 3),
		conv("conv5_1", 14, 512, 512, 3),
		conv("conv5_2", 14, 512, 512, 3),
		conv("conv5_3", 14, 512, 512, 3),
	}}
}

// resNet50 returns the 53 convolution layers of ResNet-50 (v1.5
// downsampling: the stride-2 sits on each transition block's 3x3).
func resNet50() Network {
	ls := []layer.Conv{
		layer.NewConv("conv1", 224, 224, 3, 64, 7).WithStride(2).WithPad(3),
	}
	type stage struct {
		idx, blocks, spatial, mid, out, in int
	}
	// in = channels entering the stage's first block.
	stages := []stage{
		{idx: 2, blocks: 3, spatial: 56, mid: 64, out: 256, in: 64},
		{idx: 3, blocks: 4, spatial: 28, mid: 128, out: 512, in: 256},
		{idx: 4, blocks: 6, spatial: 14, mid: 256, out: 1024, in: 512},
		{idx: 5, blocks: 3, spatial: 7, mid: 512, out: 2048, in: 1024},
	}
	for _, s := range stages {
		for b := 1; b <= s.blocks; b++ {
			inC := s.out
			inSpatial := s.spatial
			stride := 1
			if b == 1 {
				inC = s.in
				if s.idx > 2 {
					inSpatial = s.spatial * 2 // before this stage's downsampling
					stride = 2
				}
			}
			name := func(i int) string { return fmt.Sprintf("conv_%d_%d_%d", s.idx, b, i) }
			ls = append(ls,
				layer.NewConv(name(1), inSpatial, inSpatial, inC, s.mid, 1).WithPad(0),
				layer.NewConv(name(2), inSpatial, inSpatial, s.mid, s.mid, 3).WithStride(stride),
				layer.NewConv(name(3), s.spatial, s.spatial, s.mid, s.out, 1).WithPad(0),
			)
			if b == 1 {
				ls = append(ls, layer.NewConv(
					fmt.Sprintf("conv_%d_%d_proj", s.idx, b),
					inSpatial, inSpatial, inC, s.out, 1).WithStride(stride).WithPad(0))
			}
		}
	}
	return Network{Name: "resnet50", Layers: ls}
}

// squeezeNet returns the convolution layers of SqueezeNet v1.1 (each
// fire module contributes its squeeze and two expand convolutions).
func squeezeNet() Network {
	ls := []layer.Conv{
		layer.NewConv("conv1", 224, 224, 3, 64, 3).WithStride(2).WithPad(0),
	}
	fire := func(name string, spatial, in, squeeze, expand int) {
		ls = append(ls,
			layer.NewConv(name+"_squeeze", spatial, spatial, in, squeeze, 1).WithPad(0),
			layer.NewConv(name+"_expand1x1", spatial, spatial, squeeze, expand, 1).WithPad(0),
			layer.NewConv(name+"_expand3x3", spatial, spatial, squeeze, expand, 3),
		)
	}
	fire("fire2", 55, 64, 16, 64)
	fire("fire3", 55, 128, 16, 64)
	fire("fire4", 27, 128, 32, 128)
	fire("fire5", 27, 256, 32, 128)
	fire("fire6", 13, 256, 48, 192)
	fire("fire7", 13, 384, 48, 192)
	fire("fire8", 13, 384, 64, 256)
	fire("fire9", 13, 512, 64, 256)
	ls = append(ls, layer.NewConv("conv10", 13, 13, 512, 1000, 1).WithPad(0))
	return Network{Name: "squeezenet", Layers: ls}
}

// yoloV2 returns the 23 convolution layers of YOLOv2 (Darknet-19
// backbone plus the detection head and passthrough convolution).
func yoloV2() Network {
	return Network{Name: "yolov2", Layers: []layer.Conv{
		conv("conv1", 416, 3, 32, 3),
		conv("conv2", 208, 32, 64, 3),
		conv("conv3", 104, 64, 128, 3),
		layer.NewConv("conv4", 104, 104, 128, 64, 1).WithPad(0),
		conv("conv5", 104, 64, 128, 3),
		conv("conv6", 52, 128, 256, 3),
		layer.NewConv("conv7", 52, 52, 256, 128, 1).WithPad(0),
		conv("conv8", 52, 128, 256, 3),
		conv("conv9", 26, 256, 512, 3),
		layer.NewConv("conv10", 26, 26, 512, 256, 1).WithPad(0),
		conv("conv11", 26, 256, 512, 3),
		layer.NewConv("conv12", 26, 26, 512, 256, 1).WithPad(0),
		conv("conv13", 26, 256, 512, 3),
		conv("conv14", 13, 512, 1024, 3),
		layer.NewConv("conv15", 13, 13, 1024, 512, 1).WithPad(0),
		conv("conv16", 13, 512, 1024, 3),
		layer.NewConv("conv17", 13, 13, 1024, 512, 1).WithPad(0),
		conv("conv18", 13, 512, 1024, 3),
		conv("conv19", 13, 1024, 1024, 3),
		conv("conv20", 13, 1024, 1024, 3),
		layer.NewConv("conv21_passthrough", 26, 26, 512, 64, 1).WithPad(0),
		conv("conv22", 13, 1280, 1024, 3),
		layer.NewConv("conv23", 13, 13, 1024, 425, 1).WithPad(0),
	}}
}

// table lists the evaluation networks in All's order. ByName and Names
// read the names alone, so only the network asked for is ever built.
var table = []struct {
	name  string
	build func() Network
}{
	{"vgg16", vgg16}, {"resnet50", resNet50}, {"squeezenet", squeezeNet}, {"yolov2", yoloV2},
}

// ByName returns a network by its lower-case name.
func ByName(name string) (Network, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(), nil
		}
	}
	return Network{}, fmt.Errorf("nets: unknown network %q (want one of %v)", name, names())
}

// All returns all four evaluation networks.
func All() []Network {
	ns := make([]Network, len(table))
	for i, e := range table {
		ns[i] = e.build()
	}
	return ns
}

// names returns the available network names, sorted.
func names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	sort.Strings(out)
	return out
}
