package grammar.impl;

@Deprecated
public enum Colors {
    RED("r"), GREEN("g");

    private final String code;

    Colors(String code) { this.code = code; }

    String code() { return code; }
}

enum Plain { ONE, TWO }

class Palette {
    Colors first;
    int size() { return Colors.values().length; }
}
