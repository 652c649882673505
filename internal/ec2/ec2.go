// Package ec2 encodes Table I of the paper: the Amazon EC2 instance types
// used in the evaluation and the four cluster presets built from them.
// The network figures are the effective per-VM bandwidths the authors
// measured (≈216 Mbps for small instances, ≈376 Mbps for medium and
// large).
package ec2

import "fmt"

// Mbps converts megabits/second to bytes/second.
func Mbps(v float64) float64 { return v * 1e6 / 8 }

// InstanceType is a row of Table I.
type InstanceType struct {
	Name        string
	MemoryGB    float64
	ECUs        int
	NetworkMbps float64
}

// NetworkBps returns the instance NIC capacity in bytes per second.
func (t InstanceType) NetworkBps() float64 { return Mbps(t.NetworkMbps) }

func (t InstanceType) String() string {
	return fmt.Sprintf("%s(%.2fGB, %d ECU, ~%.0fMbps)", t.Name, t.MemoryGB, t.ECUs, t.NetworkMbps)
}

// Table I.
var (
	Small  = InstanceType{Name: "small", MemoryGB: 1.7, ECUs: 1, NetworkMbps: 216}
	Medium = InstanceType{Name: "medium", MemoryGB: 3.75, ECUs: 2, NetworkMbps: 376}
	Large  = InstanceType{Name: "large", MemoryGB: 7.5, ECUs: 4, NetworkMbps: 376}
)

// Types lists all instance types in Table I order.
var Types = []InstanceType{Small, Medium, Large}

// ClusterPreset is one of the paper's four evaluation clusters: the
// instance types of the datanodes (9 of them), plus the type of the
// client/namenode machine.
type ClusterPreset struct {
	Name      string
	Datanodes []InstanceType // 9 entries
	Client    InstanceType   // the machine running `hdfs put`
}

// The paper's clusters (§V-A): three homogeneous 1+9 clusters and one
// heterogeneous cluster of 3 small + 4 medium + 3 large where one medium
// node is the namenode.
var (
	SmallCluster  = homogeneous("small", Small)
	MediumCluster = homogeneous("medium", Medium)
	LargeCluster  = homogeneous("large", Large)
	HeteroCluster = ClusterPreset{
		Name: "hetero",
		Datanodes: []InstanceType{
			Small, Small, Small,
			Medium, Medium, Medium, // fourth medium is the namenode
			Large, Large, Large,
		},
		Client: Medium,
	}
)

// Presets lists the four evaluation clusters.
var Presets = []ClusterPreset{SmallCluster, MediumCluster, LargeCluster, HeteroCluster}

func homogeneous(name string, t InstanceType) ClusterPreset {
	dns := make([]InstanceType, 9)
	for i := range dns {
		dns[i] = t
	}
	return ClusterPreset{Name: name, Datanodes: dns, Client: t}
}
