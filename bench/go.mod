module cote/bench

go 1.22

require cote v0.0.0

replace cote => ../
