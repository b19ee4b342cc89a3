package gemm

// InstallLegacy is installLegacy for the external gemm_test package,
// whose network rows cannot live in package gemm (the networks import
// it).
var InstallLegacy = (*Runner).installLegacy
