module streamcast/bench

go 1.22

require streamcast v0.0.0

replace streamcast => ../
