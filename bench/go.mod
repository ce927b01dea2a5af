module dsmdist/bench

go 1.22

require dsmdist v0.0.0

replace dsmdist => ../
