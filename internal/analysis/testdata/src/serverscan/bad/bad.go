// Package ssbad scans the server list from a scheduler-scoped package.
package ssbad

import "github.com/tanklab/infless/internal/cluster"

// Visit iterates every server: the pre-index placement pattern.
func Visit(cl *cluster.Cluster) int {
	n := 0
	cl.EachServer(func(s *cluster.Server) bool { // want "Cluster\.EachServer\(\) scan in the scheduler"
		if !s.Down() {
			n++
		}
		return true
	})
	return n
}
