//go:build !amd64

package main

// cpuName is unknown off amd64: the standard library exposes no CPU model.
func cpuName() string { return "unknown" }
