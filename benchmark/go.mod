module github.com/netaware/netcluster/benchmark

go 1.22

require github.com/netaware/netcluster v0.0.0

replace github.com/netaware/netcluster => ../
