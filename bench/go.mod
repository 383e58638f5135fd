module infoslicing/bench

go 1.24

require infoslicing v0.0.0

replace infoslicing => ../
