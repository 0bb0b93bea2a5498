// Package models is the architecture zoo: builders for the networks
// the paper evaluates (image classification, face recognition and
// object detection). Only layer geometry matters for the latency
// experiments — weights are synthetic and seeded — so each builder
// reproduces the published architecture's shapes.
package models

import (
	"fmt"
	"sort"

	"repro/internal/nn"
)

// builders maps a canonical model name to its builder.
var builders = map[string]func() *nn.Network{
	"lenet5":           LeNet5,
	"alexnet":          AlexNet,
	"vgg16":            VGG16,
	"vgg19":            VGG19,
	"googlenet":        GoogleNet,
	"resnet18":         ResNet18,
	"resnet50":         ResNet50,
	"mobilenet-v1":     MobileNetV1,
	"mobilenet-v1-050": func() *nn.Network { return MobileNetV1Width("mobilenet-v1-050", 0.5) },
	"mobilenet-v1-025": func() *nn.Network { return MobileNetV1Width("mobilenet-v1-025", 0.25) },
	"squeezenet":       SqueezeNet,
	"facenet20":        FaceNet20,
	"tinyyolo":         TinyYOLO,
}

// All returns the sorted canonical names of every model in the zoo.
func All() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name is a model of the zoo, without building it.
func Known(name string) bool { _, ok := builders[name]; return ok }

// Build constructs the named model or returns an error listing the
// available names.
func Build(name string) (*nn.Network, error) {
	if f, ok := builders[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("models: unknown model %q (available: %v)", name, All())
}

// MustBuild is Build but panics on an unknown name.
func MustBuild(name string) *nn.Network {
	n, err := Build(name)
	if err != nil {
		panic(err)
	}
	return n
}

// TableIINetworks lists the networks, in presentation order, used to
// regenerate the paper's Table II: classification (LeNet-5 through
// SqueezeNet), face recognition (FaceNet20) and detection (TinyYOLO).
func TableIINetworks() []string {
	return []string{
		"lenet5", "alexnet", "vgg16", "vgg19", "googlenet",
		"resnet50", "mobilenet-v1", "squeezenet", "facenet20", "tinyyolo",
	}
}
